"""Command-line front door.

Verbs: eval, measure, order, transform, refute, descend, certify, validate,
reproduce, support.  Each verb maps the loaded spec and its arguments to a
report and an exit code, and ``main`` writes every report through one
writer, to ``--out`` or stdout.  The eight report verbs return a document,
which the writer versions with a ``schema_version`` field and renders as
``--format`` says: JSON (sorted keys) or ``key,value`` CSV (nested keys
dotted, lists as JSON).  ``reproduce`` and ``support`` return CSV tables.
Seeds are echoed in the output for replayability.

Exit codes: 0 success, 1 validation/acceptance failure, 2 usage or spec
error, or an ``--out``/``--trace-out`` file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import serialize
from .concordance import kendall_tau, pi_integral, spearman_rho
from .core import EXACT_TOL, sample, validate
from .errors import InputError, MincopError, SpecError
from .negdep import (
    GFunc,
    HyperplaneSpec,
    TauCmCertificate,
    descend,
    hyperplane_mass,
    refute_minimality,
    tau_cm_certificate,
    trace_csv,
)
from .order import concordance_leq, pointwise_leq
from .reference_values import build_rows, rows_to_csv
from .transforms import discretize, permute, reflect

REPORT_VERSION = 1

# measure's flags and the functionals they select, in report order
_FUNCTIONALS = (("tau", kendall_tau), ("rho", spearman_rho), ("pi", pi_integral))


def _flatten(doc, prefix=""):
    for key in sorted(doc):
        val = doc[key]
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            yield from _flatten(val, prefix=f"{name}.")
        elif isinstance(val, (list, tuple)):
            yield name, json.dumps(val, default=_jsonify)
        else:
            yield name, val


def _emit(report, out: str | None, fmt: str) -> None:
    """Write a verb's report: CSV text as it is, a document versioned and
    rendered as ``fmt``.  A document with its own version (a spec) keeps
    it."""
    if isinstance(report, dict):
        doc = {"schema_version": REPORT_VERSION, **report}
        if fmt == "csv":
            rows = ["key,value"] + [f"{k},{v}" for k, v in _flatten(doc)]
            report = "\n".join(rows) + "\n"
        else:
            report = json.dumps(doc, sort_keys=True, indent=2, default=_jsonify) + "\n"
    _write_text(report, out)


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


class _Unwritable(Exception):
    """An ``--out`` or ``--trace-out`` file that cannot be written."""


def _write_text(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Unwritable(f"cannot write {out}: {exc.strerror or exc}") from None


def _numbers(text: str, kind=float) -> list:
    """A comma-separated list of numbers from the command line."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"expected comma-separated numbers, got {text!r}") from None


def _tau_cm_doc(cert: TauCmCertificate) -> dict:
    return {
        "defect": cert.defect,
        "worst_point": list(cert.worst_point),
        "grid": cert.grid,
        "exact": cert.exact,
        "tol": cert.tol,
    }


def _cmd_eval(C, args):
    u = _numbers(args.point)
    value = C.survival_value(u) if args.survival else C.cdf(u)
    return {"point": u, "value": value, "survival": bool(args.survival)}, 0


def _cmd_measure(C, args):
    doc = {"seed": args.seed}
    chosen = [f for flag, f in _FUNCTIONALS if getattr(args, flag)]
    for functional in chosen or [f for _, f in _FUNCTIONALS]:
        rep = functional(C, method=args.method, samples=args.samples, seed=args.seed)
        doc[functional.__name__] = {
            "name": rep.name,
            "dim": rep.dim,
            "value": rep.value,
            "method": rep.estimate.method,
            "error_bound": rep.estimate.error_bound,
            "samples_or_nodes": rep.estimate.samples_or_nodes,
            "normalization": rep.normalization,
        }
    return doc, 0


def _cmd_order(C, args):
    D = serialize.load(args.other)
    return {
        "pointwise": asdict(pointwise_leq(C, D, grid=args.grid, tol=args.tol)),
        "concordance": asdict(concordance_leq(C, D, grid=args.grid, tol=args.tol)),
    }, 0


def _cmd_transform(C, args):
    if args.reflect:
        C = reflect(C, _numbers(args.reflect, int))
    if args.permute:
        C = permute(C, _numbers(args.permute, int))
    if args.discretize:
        C = discretize(C, args.discretize)
    return serialize.to_spec(C), 0


def _cmd_refute(C, args):
    cert = refute_minimality(C, grid=args.grid, tol=args.tol)
    if isinstance(cert, TauCmCertificate):
        return {"result": "tau_cm", **_tau_cm_doc(cert)}, 0
    return {
        "result": "refuted",
        "a": cert.a.tolist(),
        "b": cert.b.tolist(),
        "p": cert.p,
        "rho_drop": cert.rho_drop,
        "margin_defect": cert.margin_defect,
        "order_check": asdict(cert.order_check),
        "witness_copula": serialize.to_spec(cert.copula),
    }, 0


def _cmd_descend(C, args):
    res = descend(C, n=args.n, max_iter=args.max_iter, tol=args.tol)
    if args.trace_out:
        _write_text(trace_csv(res.trace), args.trace_out)
    return {
        "status": res.status,
        "iterations": len(res.trace),
        "final_defect": res.trace[-1].defect if res.trace else None,
        "final_copula": serialize.to_spec(res.final),
    }, 0 if res.status == "converged" else 1


def _parse_hyperplane(path: str) -> HyperplaneSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        g = tuple(
            GFunc(
                form=gd["form"],
                alpha=gd.get("alpha", 1.0),
                beta=gd.get("beta", 0.0),
                gamma=gd.get("gamma", 1.0),
            )
            for gd in doc["g"]
        )
        return HyperplaneSpec(tuple(int(k) for k in doc["K"]), g, float(doc["c"]))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"{path}: malformed hyperplane spec ({exc})") from None


def _cmd_certify(C, args):
    # --tol judges both sections: the tau-CM defect and the band's missing mass
    doc = {}
    if args.tau_cm or not args.k_cm:
        cert = tau_cm_certificate(C, grid=args.grid, tol=args.tol)
        doc["tau_cm"] = {**_tau_cm_doc(cert), "passed": cert.passed}
    if args.k_cm:
        spec = _parse_hyperplane(args.k_cm)
        mass = hyperplane_mass(C, spec, eps=args.eps)
        doc["k_cm"] = {
            "K": list(spec.K),
            "c": spec.c,
            "eps": args.eps,
            "band_mass": mass,
            "tol": args.tol,
            "certified": mass >= 1.0 - args.tol,
        }
    ok = all(section.get("passed", section.get("certified")) for section in doc.values())
    return doc, 0 if ok else 1


def _cmd_validate(C, args):
    rep = validate(C, resolution=args.grid)
    return {
        "worst_negative_mass": rep.worst_negative_mass,
        "worst_margin_defect": rep.worst_margin_defect,
        "worst_grounding_defect": rep.worst_grounding_defect,
        "grid": rep.grid,
        "tol": rep.tol,
        "passed": rep.passed,
    }, 0 if rep.passed else 1


def _cmd_reproduce(_, args):
    if args.target != "paper-values":
        raise InputError(f"unknown reproduce target {args.target!r}")
    rows = build_rows(
        progress=lambda r: print(
            f"{'PASS' if r.passed else 'FAIL'}  {r.quantity} (d={r.d}): "
            f"computed {r.computed:.10g}, error {r.error:.2e} (tol {r.tol:.0e})",
            file=sys.stderr,
        )
    )
    failed = [r for r in rows if not r.passed]
    print(
        f"{len(rows) - len(failed)}/{len(rows)} rows passed", file=sys.stderr
    )
    return rows_to_csv(rows), 0 if not failed else 1


def _cmd_support(C, args):
    pts = sample(C, args.seed, args.samples)
    header = ",".join(f"u{k + 1}" for k in range(C.dim))
    body = "\n".join(",".join(f"{x:.12g}" for x in row) for row in pts)
    print(f"seed={args.seed} samples={args.samples}", file=sys.stderr)
    return header + "\n" + body + "\n", 0


def _tolerance(text: str) -> float:
    """A finite, nonnegative float for --tol and --eps."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mincop",
        description="Copula concordance computations and extreme-negative-"
        "dependence certificates.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, tol=False, report=True, grid=False):
        # each verb registers only the options it reads
        p.add_argument("copula", help="path to a copula spec JSON")
        p.add_argument("--out", default=None, help="write the report here")
        if tol:
            p.add_argument("--tol", type=_tolerance, default=EXACT_TOL)
        if report:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if grid:
            p.add_argument(
                "--grid",
                type=int,
                default=None,
                help="uniform cells per axis (at least 2), plus breakpoints; "
                "without it a board is read at its own vertices",
            )

    p = sub.add_parser("eval", help="evaluate the cdf (or survival value) at a point")
    common(p)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--survival", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("measure", help="Kendall tau / Spearman rho / Pi-integral")
    common(p)
    p.add_argument("--tau", action="store_true")
    p.add_argument("--rho", action="store_true")
    p.add_argument("--pi", action="store_true")
    p.add_argument(
        "--method",
        default="auto",
        help="auto, exact, quadrature or monte_carlo, for all three functionals; "
        "auto takes each functional's first path that applies, a named method "
        "the first path of that kind (exact_checkerboard and segment_quadrature "
        "are aliases of exact and quadrature)",
    )
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("order", help="pointwise and concordance order check")
    common(p, tol=True, grid=True)
    p.add_argument("other", help="path to the second copula spec")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("transform", help="reflect / permute / discretize")
    common(p)
    p.add_argument("--reflect", default=None, help="comma-separated 0-based axes")
    p.add_argument("--permute", default=None, help="comma-separated image of 0..d-1")
    p.add_argument("--discretize", type=int, default=None, help="uniform resolution")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("refute", help="tau-CM certificate or minimality refutation")
    common(p, tol=True, grid=True)
    p.set_defaults(func=_cmd_refute)

    p = sub.add_parser("descend", help="iterated surgery toward a tau-CM board")
    common(p, tol=True)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--trace-out", default=None, help="write the CSV trace here")
    p.set_defaults(func=_cmd_descend)

    p = sub.add_parser("certify", help="tau-CM and/or K-CM certificates")
    common(p, tol=True, grid=True)
    p.add_argument("--tau-cm", action="store_true")
    p.add_argument("--k-cm", default=None, help="path to a hyperplane spec JSON")
    p.add_argument("--eps", type=_tolerance, default=0.0, help="hyperplane band half-width")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("validate", help="copula axiom check on a grid")
    common(p, grid=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("reproduce", help="recompute the published-values table")
    p.add_argument("target", help="'paper-values'")
    p.add_argument("--out", default=None, help="write the CSV here")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("support", help="sample the support as a point-cloud CSV")
    common(p, report=False)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_support)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        C = serialize.load(args.copula) if "copula" in args else None
        report, code = args.func(C, args)
        _emit(report, args.out, getattr(args, "format", "json"))
        return code
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _Unwritable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"memory error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except MincopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

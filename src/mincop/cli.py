"""Command-line front door.

Verbs: eval, measure, order, transform, refute, descend, certify, validate,
reproduce, support.  Structured reports are JSON (sorted keys, versioned
with a ``schema_version`` field); tables, traces and point clouds are CSV.
Seeds are echoed in the output for replayability.

Exit codes: 0 success, 1 validation/acceptance failure, 2 usage or spec
error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import serialize
from .concordance import kendall_tau, pi_integral, spearman_rho
from .core import sample, validate
from .errors import InputError, MincopError, SpecError
from .negdep import (
    GFunc,
    HyperplaneSpec,
    RefutationCertificate,
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


def _emit(doc, out: str | None, fmt: str = "json") -> None:
    if fmt == "csv":
        rows = ["key,value"] + [f"{k},{v}" for k, v in _flatten(doc)]
        text = "\n".join(rows) + "\n"
    else:
        text = json.dumps(doc, sort_keys=True, indent=2, default=_jsonify) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _numbers(text: str, kind=float) -> list:
    """A comma-separated list of numbers from the command line."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"expected comma-separated numbers, got {text!r}") from None


def _order_doc(res) -> dict:
    return {
        "relation": res.relation,
        "witness_points": [list(w) for w in res.witness_points],
        "max_violation": res.max_violation,
        "grid_used": res.grid_used,
        "exact": res.exact,
        "tol": res.tol,
    }


def _report_doc(rep) -> dict:
    return {
        "name": rep.name,
        "dim": rep.dim,
        "value": rep.value,
        "method": rep.estimate.method,
        "error_bound": rep.estimate.error_bound,
        "samples_or_nodes": rep.estimate.samples_or_nodes,
        "normalization": rep.normalization,
    }


def _cmd_eval(args) -> int:
    C = serialize.load(args.copula)
    u = _numbers(args.point)
    value = C.survival_value(u) if args.survival else C.cdf(u)
    _emit(
        {
            "schema_version": REPORT_VERSION,
            "point": u,
            "value": value,
            "survival": bool(args.survival),
        },
        args.out,
        args.format,
    )
    return 0


def _cmd_measure(args) -> int:
    C = serialize.load(args.copula)
    doc = {"schema_version": REPORT_VERSION, "seed": args.seed}
    wanted = args.tau or args.rho or args.pi
    if args.tau or not wanted:
        doc["kendall_tau"] = _report_doc(
            kendall_tau(C, method=args.method, samples=args.samples, seed=args.seed)
        )
    if args.rho or not wanted:
        doc["spearman_rho"] = _report_doc(
            spearman_rho(C, method=args.method, samples=args.samples, seed=args.seed)
        )
    if args.pi or not wanted:
        doc["pi_integral"] = _report_doc(
            pi_integral(C, method=args.method, samples=args.samples, seed=args.seed)
        )
    _emit(doc, args.out, args.format)
    return 0


def _cmd_order(args) -> int:
    C = serialize.load(args.copula)
    D = serialize.load(args.other)
    doc = {
        "schema_version": REPORT_VERSION,
        "pointwise": _order_doc(pointwise_leq(C, D, grid=args.grid, tol=args.tol)),
        "concordance": _order_doc(concordance_leq(C, D, grid=args.grid, tol=args.tol)),
    }
    _emit(doc, args.out, args.format)
    return 0


def _cmd_transform(args) -> int:
    C = serialize.load(args.copula)
    if args.reflect:
        C = reflect(C, _numbers(args.reflect, int))
    if args.permute:
        C = permute(C, _numbers(args.permute, int))
    if args.discretize:
        C = discretize(C, args.discretize)
    _emit(serialize.to_spec(C), args.out, args.format)
    return 0


def _cmd_refute(args) -> int:
    C = serialize.load(args.copula)
    cert = refute_minimality(C, grid=args.grid, tol=args.tol)
    if isinstance(cert, RefutationCertificate):
        doc = {
            "schema_version": REPORT_VERSION,
            "result": "refuted",
            "a": cert.a.tolist(),
            "b": cert.b.tolist(),
            "p": cert.p,
            "rho_drop": cert.rho_drop,
            "margin_defect": cert.margin_defect,
            "order_check": _order_doc(cert.order_check),
            "witness_copula": serialize.to_spec(cert.copula),
        }
    else:
        doc = {
            "schema_version": REPORT_VERSION,
            "result": "tau_cm",
            "defect": cert.defect,
            "worst_point": list(cert.worst_point),
            "grid": cert.grid,
        }
    _emit(doc, args.out, args.format)
    return 0


def _cmd_descend(args) -> int:
    C = serialize.load(args.copula)
    res = descend(C, n=args.n, max_iter=args.max_iter, tol=args.tol)
    if args.trace_out:
        _write_text(trace_csv(res.trace), args.trace_out)
    doc = {
        "schema_version": REPORT_VERSION,
        "status": res.status,
        "iterations": len(res.trace),
        "final_defect": res.trace[-1].defect if res.trace else None,
        "final_copula": serialize.to_spec(res.final),
    }
    _emit(doc, args.out, args.format)
    return 0 if res.status == "converged" else 1


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


def _cmd_certify(args) -> int:
    C = serialize.load(args.copula)
    doc = {"schema_version": REPORT_VERSION}
    if args.tau_cm or not args.k_cm:
        cert = tau_cm_certificate(C, grid=args.grid)
        doc["tau_cm"] = {
            "defect": cert.defect,
            "worst_point": list(cert.worst_point),
            "grid": cert.grid,
            "passed": cert.passed,
        }
    if args.k_cm:
        spec = _parse_hyperplane(args.k_cm)
        mass = hyperplane_mass(C, spec, eps=args.eps)
        doc["k_cm"] = {
            "K": list(spec.K),
            "c": spec.c,
            "eps": args.eps,
            "band_mass": mass,
            "certified": mass >= 1.0 - args.tol,
        }
    _emit(doc, args.out, args.format)
    ok = all(section.get("passed", section.get("certified", True)) for section in doc.values() if isinstance(section, dict))
    return 0 if ok else 1


def _cmd_validate(args) -> int:
    C = serialize.load(args.copula)
    rep = validate(C, resolution=args.grid)
    _emit(
        {
            "schema_version": REPORT_VERSION,
            "worst_negative_mass": rep.worst_negative_mass,
            "worst_margin_defect": rep.worst_margin_defect,
            "worst_grounding_defect": rep.worst_grounding_defect,
            "grid": rep.grid,
            "passed": rep.passed,
        },
        args.out,
        args.format,
    )
    return 0 if rep.passed else 1


def _cmd_reproduce(args) -> int:
    if args.target != "paper-values":
        raise InputError(f"unknown reproduce target {args.target!r}")
    rows = build_rows(
        progress=lambda r: print(
            f"{'PASS' if r.passed else 'FAIL'}  {r.quantity} (d={r.d}): "
            f"computed {r.computed:.10g}, error {r.error:.2e} (tol {r.tol:.0e})",
            file=sys.stderr,
        )
    )
    _write_text(rows_to_csv(rows), args.out)
    failed = [r for r in rows if not r.passed]
    print(
        f"{len(rows) - len(failed)}/{len(rows)} rows passed", file=sys.stderr
    )
    return 0 if not failed else 1


def _cmd_support(args) -> int:
    C = serialize.load(args.copula)
    pts = sample(C, args.seed, args.samples)
    header = ",".join(f"u{k + 1}" for k in range(C.dim))
    body = "\n".join(",".join(f"{x:.12g}" for x in row) for row in pts)
    _write_text(header + "\n" + body + "\n", args.out)
    print(f"seed={args.seed} samples={args.samples}", file=sys.stderr)
    return 0


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

    def common(p, copula=True):
        if copula:
            p.add_argument("copula", help="path to a copula spec JSON")
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--tol", type=_tolerance, default=1e-9)
        p.add_argument("--format", choices=("json", "csv"), default="json")

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
    common(p)
    p.add_argument("other", help="path to the second copula spec")
    p.add_argument("--grid", type=int, default=None)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("transform", help="reflect / permute / discretize")
    common(p)
    p.add_argument("--reflect", default=None, help="comma-separated 0-based axes")
    p.add_argument("--permute", default=None, help="comma-separated image of 0..d-1")
    p.add_argument("--discretize", type=int, default=None, help="uniform resolution")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("refute", help="tau-CM certificate or minimality refutation")
    common(p)
    p.add_argument("--grid", type=int, default=None)
    p.set_defaults(func=_cmd_refute)

    p = sub.add_parser("descend", help="iterated surgery toward a tau-CM board")
    common(p)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--trace-out", default=None, help="write the CSV trace here")
    p.set_defaults(func=_cmd_descend)

    p = sub.add_parser("certify", help="tau-CM and/or K-CM certificates")
    common(p)
    p.add_argument("--tau-cm", action="store_true")
    p.add_argument("--k-cm", default=None, help="path to a hyperplane spec JSON")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--eps", type=_tolerance, default=0.0, help="hyperplane band half-width")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("validate", help="copula axiom check on a grid")
    common(p)
    p.add_argument(
        "--grid",
        type=int,
        default=None,
        help="uniform cells per axis, plus breakpoints; without it a board is "
        "checked at its own vertices",
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("reproduce", help="recompute the published-values table")
    p.add_argument("target", help="'paper-values'")
    p.add_argument("--out", default=None, help="write the CSV here")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("support", help="sample the support as a point-cloud CSV")
    common(p)
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
        return args.func(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MincopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

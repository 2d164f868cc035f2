"""Span tracer installed around mincop's public functions from outside.

Modules import each other's functions by name (``negdep`` calls
``discretize``, ``order`` calls ``survival``), so a wrapper is installed at
every name a caller resolves: the globals of each loaded ``mincop`` module
and the methods of the ``Copula`` subclasses.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` changes.

Spans are kept in memory as columns (name, start, end, parent, operation
id, work) and written out with ``save`` once the run ends.  A span's self
time is its duration minus the durations of its direct children; calls
nest, so the children of one span never overlap.
"""

from __future__ import annotations

import math
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function, span name); ``discretize`` is split by its argument.
FUNCTION_SPANS = [
    ("core", "validate", "core.validate"),
    ("transforms", "reflect", "transforms.reflect"),
    ("order", "pointwise_leq", "order.pointwise_leq"),
    ("order", "concordance_leq", "order.concordance_leq"),
    ("concordance", "kendall_tau", "concordance.kendall_tau"),
    ("concordance", "spearman_rho", "concordance.spearman_rho"),
    ("concordance", "pi_integral", "concordance.pi_integral"),
    ("negdep", "tau_cm_defect", "negdep.tau_cm_defect"),
    ("negdep", "find_corner_pair", "negdep.find_corner_pair"),
    ("negdep", "refute_minimality", "negdep.refute_minimality"),
    ("negdep", "descend", "negdep.descend"),
    ("negdep", "hyperplane_mass", "negdep.hyperplane_mass"),
    ("serialize", "parse_spec", "serialize.parse_spec"),
    ("serialize", "to_spec", "serialize.to_spec"),
    ("reference_values", "build_rows", "reference_values.build_rows"),
]

REPS = ("checkerboard", "segment", "refuted", "analytic")

# Per-layer metrics: (name, unit).  Counts and self times are per traced pass.
PER_LAYER = (
    [
        ("negdep.tau_cm_defect.calls", "count"),
        ("negdep.tau_cm_defect.self_s", "s"),
        ("negdep.find_corner_pair.calls", "count"),
        ("negdep.find_corner_pair.self_s", "s"),
        ("negdep.find_corner_pair.scalar_evals", "count"),
        ("negdep.surgery_regrid.calls", "count"),
        ("negdep.surgery_regrid.cells", "count"),
        ("negdep.surgery_regrid.self_s", "s"),
        ("negdep.refute_minimality.calls", "count"),
        ("negdep.refute_minimality.self_s", "s"),
        ("negdep.descend.steps", "count"),
        ("negdep.descend.self_s", "s"),
        ("negdep.descend.adjustment_max", "mass"),
        ("negdep.hyperplane_mass.self_s", "s"),
    ]
    + [
        (f"core.cdf_many.{rep}.{field}", unit)
        for rep in REPS
        for field, unit in (("calls", "count"), ("points", "count"), ("self_s", "s"))
    ]
    + [
        ("core.box_mass_many.calls", "count"),
        ("core.box_mass_many.points", "count"),
        ("core.box_mass_many.self_s", "s"),
        ("core.scalar_eval.calls", "count"),
        ("core.checkerboard_init.calls", "count"),
        ("core.checkerboard_init.cells", "count"),
        ("core.checkerboard_init.self_s", "s"),
        ("core.product_moment.calls", "count"),
        ("core.product_moment.self_s", "s"),
        ("core.validate.calls", "count"),
        ("core.validate.self_s", "s"),
        ("core.refuted_depth_max", "count"),
        ("transforms.discretize.calls", "count"),
        ("transforms.discretize.cells", "count"),
        ("transforms.discretize.self_s", "s"),
        ("transforms.reflect.calls", "count"),
        ("transforms.reflect.self_s", "s"),
        ("order.pointwise_leq.calls", "count"),
        ("order.pointwise_leq.points", "count"),
        ("order.pointwise_leq.self_s", "s"),
        ("order.concordance_leq.self_s", "s"),
        ("order.exact_ratio", "ratio"),
    ]
    + [
        (f"concordance.{fn}.{field}", unit)
        for fn in ("kendall_tau", "spearman_rho", "pi_integral")
        for field, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("concordance.nodes", "count"),
        ("concordance.exact_ratio", "ratio"),
        ("serialize.parse_spec.self_s", "s"),
        ("serialize.to_spec.self_s", "s"),
        ("reference_values.build_rows.self_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.unaccounted_share", "ratio"),
    ]
)


def refuted_depth(C) -> int:
    """Nesting depth of surgery nodes in an expression tree."""
    children = [getattr(C, attr) for attr in ("inner", "left", "right") if hasattr(C, attr)]
    children += [c for c, _ in getattr(C, "parts", ())]
    own = 1 if type(C).__name__ == "RefutedCopula" else 0
    return own + max((refuted_depth(c) for c in children), default=0)


class Tracer:
    """Records spans while ``active``; wrappers pass straight through
    otherwise, so correctness checks run between operations go unrecorded."""

    def __init__(self):
        self.active = False
        self.op_id = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.work = array("q")
        self.stack: list[int] = []
        self.counters = {
            "core.scalar_eval.calls": 0,
            "negdep.find_corner_pair.scalar_evals": 0,
            "negdep.descend.steps": 0,
            "order.verdicts": 0,
            "order.exact_verdicts": 0,
            "concordance.reports": 0,
            "concordance.exact_reports": 0,
            "concordance.nodes": 0,
        }
        self.maxima = {"core.refuted_depth_max": 0, "negdep.descend.adjustment_max": 0.0}
        self._undo: list[tuple[object, str, object]] = []
        self._fcp = self._id("negdep.find_corner_pair")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- span recording --------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.work.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def span(self, fn, name: str, work=None, after=None, choose=None):
        """Wrap ``fn`` in a span.  ``work(args, out)`` sizes the call,
        ``after(args, out)`` updates counters, ``choose(args)`` names the
        span from the arguments instead of ``name``."""
        tr = self
        nid = self._id(name)

        def wrapper(*args, **kw):
            if not tr.active:
                return fn(*args, **kw)
            i = tr._open(tr._id(choose(args)) if choose else nid)
            try:
                out = fn(*args, **kw)
            finally:
                tr._close(i)
            if work is not None:
                tr.work[i] = work(args, out)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counting(self, fn, after):
        """Wrap ``fn`` without a span: ``after(args, out)`` only counts."""
        tr = self

        def wrapper(*args, **kw):
            out = fn(*args, **kw)
            if tr.active:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, mincop) -> None:
        mods = [m for n, m in sys.modules.items() if n == "mincop" or n.startswith("mincop.")]
        core = mincop.core
        wrapped = {}
        for modname, fname, span in FUNCTION_SPANS:
            fn = getattr(getattr(mincop, modname), fname)
            wrapped[id(fn)] = self._function_wrapper(fn, span)
        discretize = mincop.transforms.discretize
        wrapped[id(discretize)] = self.span(
            discretize,
            "transforms.discretize",
            work=lambda a, out: out.masses.size,
            choose=lambda a: "negdep.surgery_regrid"
            if isinstance(a[0], core.RefutedCopula)
            else "transforms.discretize",
        )
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrapped:
                    self._set(mod, attr, wrapped[id(value)])
        # ``order`` builds its comparison grids with ``grid_points``
        self._set(
            mincop.order,
            "grid_points",
            self.counting(mincop.order.grid_points, self._add_points),
        )
        for cls in vars(core).values():
            if not (isinstance(cls, type) and issubclass(cls, core.Copula)):
                continue
            if "cdf_many" in cls.__dict__ and cls is not core.Copula:
                rep = {
                    "CheckerboardCopula": "checkerboard",
                    "SegmentCopula": "segment",
                    "RefutedCopula": "refuted",
                }.get(cls.__name__, "analytic")
                self._set(
                    cls,
                    "cdf_many",
                    self.span(cls.cdf_many, f"core.cdf_many.{rep}", work=_rows),
                )
            if "box_mass_many" in cls.__dict__:
                self._set(
                    cls,
                    "box_mass_many",
                    self.span(cls.box_mass_many, "core.box_mass_many", work=_rows),
                )
            if "product_moment" in cls.__dict__:
                self._set(
                    cls,
                    "product_moment",
                    self.span(cls.product_moment, "core.product_moment"),
                )
        self._set(
            core.CheckerboardCopula,
            "__init__",
            self.span(
                core.CheckerboardCopula.__init__,
                "core.checkerboard_init",
                work=lambda a, out: a[0].masses.size,
            ),
        )
        self._set(
            core.RefutedCopula,
            "__init__",
            self.counting(core.RefutedCopula.__init__, self._depth),
        )
        for meth in ("cdf", "box_mass"):
            self._set(core.Copula, meth, self.counting(core.Copula.__dict__[meth], self._scalar))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _function_wrapper(self, fn, span):
        after = {
            "order.pointwise_leq": self._verdict,
            "concordance.kendall_tau": self._report,
            "concordance.spearman_rho": self._report,
            "concordance.pi_integral": self._report,
            "negdep.descend": self._descent,
        }.get(span)
        return self.span(fn, span, after=after)

    # -- counters --------------------------------------------------------

    def _add_points(self, args, out) -> None:
        if self.stack:
            self.work[self.stack[-1]] += len(out)

    def _scalar(self, args, out) -> None:
        self.counters["core.scalar_eval.calls"] += 1
        if any(self.name[i] == self._fcp for i in self.stack):
            self.counters["negdep.find_corner_pair.scalar_evals"] += 1

    def _depth(self, args, out) -> None:
        depth = refuted_depth(args[0])
        if depth > self.maxima["core.refuted_depth_max"]:
            self.maxima["core.refuted_depth_max"] = depth

    def _verdict(self, args, out) -> None:
        self.counters["order.verdicts"] += 1
        self.counters["order.exact_verdicts"] += bool(out.exact)

    def _report(self, args, out) -> None:
        self.counters["concordance.reports"] += 1
        self.counters["concordance.exact_reports"] += out.estimate.method == "exact"
        self.counters["concordance.nodes"] += int(out.estimate.samples_or_nodes)

    def _descent(self, args, out) -> None:
        self.counters["negdep.descend.steps"] += sum(
            1 for s in out.trace if not math.isnan(s.p)
        )
        adj = max((s.adjustment for s in out.trace), default=0.0)
        if adj > self.maxima["negdep.descend.adjustment_max"]:
            self.maxima["negdep.descend.adjustment_max"] = adj

    # -- results ---------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        end = np.frombuffer(self.end, dtype=float, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32, count=n),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int64, count=n),
            "work": np.frombuffer(self.work, dtype=np.int64, count=n),
            "self": dur - child,
            "top": ~has_parent,
            "dur": dur,
        }

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass counts and self times keyed as in ``PER_LAYER``."""
        cols = self.columns()
        k = len(self.names)
        calls = np.bincount(cols["name"], minlength=k)
        work = np.bincount(cols["name"], weights=cols["work"], minlength=k)
        self_s = np.bincount(cols["name"], weights=cols["self"], minlength=k)
        out: dict[str, float] = {}
        for name, i in self._ids.items():
            out[f"{name}.calls"] = calls[i] / passes
            out[f"{name}.self_s"] = self_s[i] / passes
            field = "cells" if name.endswith(("regrid", "discretize", "init")) else "points"
            out[f"{name}.{field}"] = work[i] / passes
        c = self.counters
        for name in ("core.scalar_eval.calls", "negdep.find_corner_pair.scalar_evals",
                     "negdep.descend.steps", "concordance.nodes"):
            out[name] = c[name] / passes
        out["order.exact_ratio"] = c["order.exact_verdicts"] / max(c["order.verdicts"], 1)
        out["concordance.exact_ratio"] = c["concordance.exact_reports"] / max(
            c["concordance.reports"], 1
        )
        out.update(self.maxima)
        out["trace.top_level_s"] = float(cols["dur"][cols["top"]].sum())
        return out

    def save(self, path) -> None:
        cols = self.columns()
        np.savez(
            path,
            names=np.array(self.names),
            **{k: cols[k] for k in ("name", "start", "end", "parent", "op", "work")},
        )


def _rows(args, out) -> int:
    return len(args[1])

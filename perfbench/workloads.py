"""The four workloads: inputs made from the seed, one pass, and its checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns.  Inputs come from a numpy ``Generator``
seeded with the benchmark's ``--seed``; the program receives only the
generated copulas and specs.  Every operation's output is checked outside
its timed interval, and an operation that raises or fails its check counts
as failed.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

EXPECTED_ROWS = 38  # rows of the reproduction table ``reference_values.build_rows``
CHAIN_DEPTH = 3  # refute(Pi_2) applied to its own output; Pi_3 at depth 3 takes minutes
KENDALL_TOL = 1e-6  # Simpson-quadrature tolerance, as the reproduction table uses
VALUE_TOL = 1e-9


class Recorder:
    """Times the operations of one pass and keeps their outcomes.

    ``plan`` declares operations up front; whatever is planned but never
    ``done`` (an exception part-way, or the pass cap) counts as failed.
    """

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe  # a ``speed.SpeedProbe`` sampled after each timed unit
        self.planned = 0
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.samples: list[float] = []
        self.errors: list[str] = []
        self.op_start: float | None = None  # set while an operation runs

    def plan(self, n: int) -> None:
        self.planned += n

    def next_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op_id += 1
        self.op_start = perf_counter()

    def call(self, fn, *args, **kw):
        """Run one operation; returns (result, seconds, failed)."""
        tr = self.tracer
        if tr is not None:
            tr.active = True
        self.next_op()
        try:
            out, err = fn(*args, **kw), None
        except Exception as exc:  # a failed operation, counted and reported
            out, err = None, exc
        finally:
            dt = perf_counter() - self.op_start
            if tr is not None:
                tr.active = False
        self.op_start = None
        if err is not None:
            self.errors.append(f"{type(err).__name__}: {err}")
        return out, dt, err is not None

    def done(self, seconds: float, ok: bool, count: int = 1, planned: int | None = None,
             split: bool = False):
        """Record one timed unit holding ``count`` operations: one latency
        sample, or with ``split`` one sample of ``seconds / count`` for each
        operation (for units the program runs as one call)."""
        if split and count > 0:
            self.samples += [seconds / count] * count
        else:
            self.samples.append(seconds)
        self.wall += seconds
        self.attempted += count
        self.failed += 0 if ok else count
        self.planned -= count if planned is None else planned
        if self.probe is not None:
            self.probe.after(seconds)

    def close(self) -> None:
        """End the pass: an operation still running was cut by the cap; its
        time so far is a sample, and every planned operation left fails."""
        if self.op_start is not None:
            self.done(perf_counter() - self.op_start, False, count=0)
            self.op_start = None
        left = max(self.planned, 0)
        self.attempted += left
        self.failed += left
        self.planned = 0


def random_board(m, rng: np.random.Generator, d: int, n: int):
    """``catalog.random_checkerboard`` seeded from the benchmark's generator."""
    return m.catalog.random_checkerboard(d, n, seed=int(rng.integers(2**63)))


def board_spec(board) -> dict:
    return {
        "kind": "checkerboard",
        "dim": board.dim,
        "cuts": [c.tolist() for c in board.cuts],
        "shape": list(board.masses.shape),
        "masses": board.masses.ravel().tolist(),
    }


# ---------------------------------------------------------------------------
# descent: four descend runs; an operation is one surgery step
# ---------------------------------------------------------------------------
#
# ``descend`` runs its steps inside one call, so a step's latency is its
# run's time over the run's steps.  Per pass that is 56 samples of the
# Pi_2 run (n=64), 20 of Pi_3, 10 of the board and 5 of Pi_4: the median
# reads the Pi_2 run, whose input the seed does not change, and p90 the
# slower per step of the Pi_3 and board runs.


def descent_inputs(m, rng):
    product = lambda d: m.catalog.make_basic("product", d)
    board = random_board(m, rng, 3, 8)
    return [
        (product(2), 64, 80),
        (product(3), 8, 20),
        (board, 8, 10),
        (product(4), 4, 5),
    ]


def surgery_steps(result) -> int:
    return sum(1 for s in result.trace if not math.isnan(s.p))


def check_descent(m, result) -> bool:
    """Valid final board; the Kendall integral never increases; rho drops
    strictly on every step without coarsening; converged means defect
    <= 1e-9.  Status and step count are not pinned."""
    final = result.final
    if not isinstance(final, m.core.CheckerboardCopula) or not m.core.validate(final).passed:
        return False
    for prev, cur in zip(result.trace, result.trace[1:]):
        if cur.kendall_integral > prev.kendall_integral:
            return False
        if not cur.coarsened and not cur.rho < prev.rho:
            return False
    return result.status != "converged" or result.trace[-1].defect <= 1e-9


def descent_pass(m, inputs, rec: Recorder) -> None:
    rec.plan(sum(max_iter for _, _, max_iter in inputs))
    for C, n, max_iter in inputs:
        res, dt, failed = rec.call(m.negdep.descend, C, n=n, max_iter=max_iter)
        if failed:
            rec.done(dt, False, count=max_iter)
            continue
        rec.done(dt, check_descent(m, res), count=surgery_steps(res), planned=max_iter,
                 split=True)


# ---------------------------------------------------------------------------
# refute: a stream of certificates, each input a spec as `mincop refute` reads
# ---------------------------------------------------------------------------

REFUTED, TAU_CM = "refuted", "tau_cm"


def refute_inputs(m, rng):
    """A shuffled stream of (spec, expected certificate) pairs, and the root
    of the surgery chain that follows it."""
    stream = []
    # A d=3 board refute costs either ~6 or ~20 d=2 refutes (about a third
    # bisect a corner), so p90 must lie inside the slow mode, not at its
    # edge: 72 d=3 boards put some 24 slow ones above the 19 operations
    # beyond p90.  d=2 boards (~10 ms, narrow) are over half of the stream,
    # so that the median latency lies inside their cluster.  There are no
    # d=4 boards: a d=4 n=8 refute takes either ~0.35 s or ~1 s, so three of
    # them moved the pass time by a tenth from seed to seed; d=4 is covered
    # by the tau-CM ``reflected_upper`` input.
    for d, n, count in ((2, 8, 60), (2, 16, 40), (3, 8, 48), (3, 16, 24)):
        stream += [(board_spec(random_board(m, rng, d, n)), REFUTED) for _ in range(count)]
    pi2 = {"kind": "product", "dim": 2}
    m2 = {"kind": "upper_frechet", "dim": 2}
    w = {"kind": "lower_frechet", "dim": 2}
    stream += [
        (spec, REFUTED)
        for spec in (
            pi2,
            {"kind": "product", "dim": 3},
            m2,
            {"kind": "upper_frechet", "dim": 3},
            {
                "kind": "mixture",
                "dim": 2,
                "parts": [{"weight": 0.5, "copula": m2}, {"weight": 0.5, "copula": pi2}],
            },
        )
    ]
    stream += [
        (spec, TAU_CM)
        for spec in (
            {"kind": "triangle", "dim": 3},
            *(
                {"kind": "reflected_upper", "dim": 3, "K": K}
                for K in ([0], [1], [2], [0, 1], [0, 2], [1, 2])
            ),
            {"kind": "reflected_upper", "dim": 4, "K": [0]},
            {"kind": "clayton_extreme", "dim": 3},
            w,
            {"kind": "glue_product", "dim": 3, "left": w, "right": {"kind": "product", "dim": 1}},
        )
    ]
    # Shuffled, so that each kind of input spans the pass and meets the same
    # swings of the machine's speed.
    return [stream[i] for i in rng.permutation(len(stream))], pi2


def _refute(m, spec):
    cert = m.negdep.refute_minimality(m.serialize.parse_spec(spec))
    if isinstance(cert, m.negdep.RefutationCertificate):
        return cert, m.serialize.to_spec(cert.copula)
    return cert, None


def _refute_ok(m, cert, expected) -> bool:
    cls = m.negdep.RefutationCertificate if expected == REFUTED else m.negdep.TauCmCertificate
    return isinstance(cert, cls) and cert.passed


def refute_pass(m, inputs, rec: Recorder) -> None:
    stream, root = inputs
    rec.plan(len(stream) + CHAIN_DEPTH)
    for spec, expected in stream:
        out, dt, failed = rec.call(_refute, m, spec)
        rec.done(dt, not failed and _refute_ok(m, out[0], expected))
    spec = root
    for _ in range(CHAIN_DEPTH):
        out, dt, failed = rec.call(_refute, m, spec)
        ok = not failed and _refute_ok(m, out[0], REFUTED)
        rec.done(dt, ok)
        if not ok:
            return  # the rest of the chain stays planned, hence failed
        spec = out[1]


# ---------------------------------------------------------------------------
# paper-values: the reproduction table; an operation is one row
# ---------------------------------------------------------------------------


def paper_values_inputs(m, rng):
    return None


def paper_values_pass(m, inputs, rec: Recorder) -> None:
    rec.plan(EXPECTED_ROWS)

    def progress(row):
        rec.done(perf_counter() - rec.op_start, row.passed)
        rec.next_op()

    _, tail, _ = rec.call(m.reference_values.build_rows, progress=progress)
    rec.wall += tail  # after the last row, before the return


# ---------------------------------------------------------------------------
# measure: concordance functionals with method="auto"; an operation is a value
# ---------------------------------------------------------------------------

# The program's values when this benchmark was defined, for inputs without a
# closed form in PAPER.md; quadrature nodes and the Monte Carlo seed are fixed.
CLAYTON_VALUES = {
    ("spearman_rho", 5): -0.14890553545484092,
    ("spearman_rho", 3): -0.4666692848228805,
    ("pi_integral", 3): 0.057538888147330804,
    ("spearman_rho", 4): -0.2578210562058516,
    ("pi_integral", 4): 0.02045320696049719,
}


def kendall_minimum(d: int) -> float:
    """PAPER.md: every tau-CM copula has tau = -1/(2^(d-1) - 1)."""
    return -1.0 / (2.0 ** (d - 1) - 1.0)


def board_references(board) -> dict[str, float]:
    """Kendall's tau, Spearman's rho and the Pi-integral of a checkerboard,
    from its mass tensor: mass is uniform within a cell, so moments are
    products of cell midpoints and int C dQ is the mass-weighted mean of C
    over each cell's corners."""
    cuts, masses = board.cuts, board.masses
    d = masses.ndim
    mids = np.meshgrid(*[0.5 * (c[:-1] + c[1:]) for c in cuts], indexing="ij")
    prod_v = float(np.sum(masses * np.prod(mids, axis=0)))
    prod_1mv = float(np.sum(masses * np.prod([1.0 - x for x in mids], axis=0)))
    vertex = masses
    for ax in range(d):
        vertex = np.cumsum(vertex, axis=ax)
    vertex = np.pad(vertex, [(1, 0)] * d)
    corners = np.zeros(masses.shape)
    for mask in np.ndindex(*(2,) * d):
        corners += vertex[tuple(slice(b, b + s) for b, s in zip(mask, masses.shape))]
    kendall = float(np.sum(masses * corners)) / 2**d
    return {
        "kendall_tau": 2.0**d / (2.0 ** (d - 1) - 1.0) * (kendall - 2.0**-d),
        "spearman_rho": 2.0**d * (d + 1) / (2.0**d - (d + 1))
        * (0.5 * (prod_v + prod_1mv) - 2.0**-d),
        "pi_integral": prod_v,
    }


def measure_inputs(m, rng):
    """(functional, copula, reference, tolerance) tuples."""
    cat = m.catalog
    items = [
        (fn, cat.make_basic("clayton_extreme", d), value, VALUE_TOL)
        for (fn, d), value in CLAYTON_VALUES.items()
    ]
    segments = [
        (cat.make_triangle_3d(), kendall_minimum(3)),
        (cat.make_reflected_upper(3, [0]), kendall_minimum(3)),
        (cat.make_reflected_upper(4, [0, 1]), kendall_minimum(4)),
        (cat.mixture_all_reflections(3), kendall_minimum(3)),
        (cat.mixture_all_reflections(4), kendall_minimum(4)),
        (cat.make_basic("lower_frechet_2d", 2), kendall_minimum(2)),
        (cat.make_basic("upper_frechet", 3), 1.0),
        (cat.shuffle_a(), 0.0),
        (cat.shuffle_b(), 0.0),
    ]
    items += [("kendall_tau", C, ref, KENDALL_TOL) for C, ref in segments]
    for _ in range(2):
        board = random_board(m, rng, 3, 32)
        items += [(fn, board, ref, VALUE_TOL) for fn, ref in board_references(board).items()]
    return items


def measure_pass(m, inputs, rec: Recorder) -> None:
    rec.plan(len(inputs))
    for fn, C, ref, tol in inputs:
        rep, dt, failed = rec.call(getattr(m.concordance, fn), C, method="auto")
        ok = not failed and abs(rep.value - ref) <= rep.estimate.error_bound + tol
        rec.done(dt, ok)


WORKLOADS = {
    "descent": (descent_inputs, descent_pass),
    "refute": (refute_inputs, refute_pass),
    "paper-values": (paper_values_inputs, paper_values_pass),
    "measure": (measure_inputs, measure_pass),
}

"""Concordance functionals: Kendall's tau, Spearman's rho, the Pi-integral.

Multivariate Kendall's tau and Spearman's rho, normalised so M scores 1:

    tau(C) = 2^d / (2^{d-1} - 1) * ( int C dQ^C - 2^{-d} )
    rho(C) = 2^d (d+1) / (2^d - (d+1)) * ( int (C + tau C)/2 dQ^Pi - 2^{-d} )

Each functional tries one ordered table of paths (``_dispatch``): "auto"
takes the first that applies, a named method the first of its kind.

* Kendall's tau: the checkerboard corner average (exact: C is multilinear
  on every cell of its own grid, so the cell average is the corner
  average); composite Simpson along segments, M and W read as their
  one-segment twins (quadrature: the cdf is piecewise linear on a line, so
  Simpson is exact away from finitely many kink panels, and the bound is
  the observed Richardson difference, never an assumption); Pi's 2^{-d}
  (exact); the product of a glue product's halves (whatever they report);
  sampling (monte_carlo); two grid projections (quadrature).
* rho and the Pi-integral reduce to polynomial moments of the copula
  measure, int C dQ^Pi = E[prod_k (1 - V_k)] and
  int (tau C) dQ^Pi = E[prod_k V_k] with V ~ Q^C, exact through
  ``product_moment`` for boards, segments, the Frechet bounds, Pi, glue
  products, mixtures and surgery nodes.  Without a moment path (e.g. the
  extreme Clayton) they take tensor Gauss-Legendre for d <= 4, then Monte
  Carlo: rho over uniform draws, the Pi-integral over C's sampler, or
  without one over uniform draws x of Q^C[[x, 1]].  The quadrature
  evaluates on the tensor grid of the Gauss nodes, with each node's weight
  the left-to-right product of its axes' weights: rho reads tau C as a box
  mass of C (the survival copula's ``cdf_grid``, one box of C per node),
  and the Pi-integral integrates Q^C[[x, 1]] on the grid's lattice.  Both
  run the one block loop of every lattice query (``_lattice_box_mass``),
  so no kernel holds more than a block of the grid at once.  Every box
  [1 - u, 1] or [x, 1] passes its upper face as the float 1.0, on the grid
  and on the uniform draws alike, which a separable kernel (the extreme
  Clayton's) takes once.

Quadrature reports the difference to a coarser rule, Monte Carlo a 3-sigma
half-width (so ``samples`` must be at least 2), both as plain floats.  Every
Monte Carlo path runs one loop (``_monte_carlo``) that fills a preallocated
value array in blocks of ``_BOX_ROWS`` rows.  The calling thread draws the
blocks in order: uniform draws are streamed block by block from one
generator, so they are those of one full batch, and a sampler's points are
drawn at once (8d bytes per sample) and read block by block.  The blocks
are evaluated on up to one thread per CPU, at most ``_MC_WORKERS``, and the
variance is taken in place, so a uniform estimate holds about 8 bytes per
sample plus one block per thread; its value and bound have the same bits
for any number of threads.
Normalisation constants are recomputed from d at call time and echoed in
every report so unit errors stay visible.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    MOMENT_1MV,
    MOMENT_V,
    CheckerboardCopula,
    Copula,
    GlueProduct,
    LowerFrechet2d,
    MeasureEstimate,
    ProductCopula,
    SegmentCopula,
    UpperFrechet,
    _BOX_ROWS,
    _gauss_nodes,
    _lattice,
)
from .errors import InputError, UnsupportedRepresentationError
from .transforms import discretize, reflect, survival

__all__ = [
    "FunctionalReport",
    "kendall_normalization",
    "spearman_normalization",
    "kendall_integral",
    "kendall_tau",
    "spearman_rho",
    "pi_integral",
    "reflection_sum",
]

MC_DEFAULT_SAMPLES = 10**6
# the most Monte Carlo blocks evaluated at once, each on its own thread
_MC_WORKERS = 4
SIMPSON_PANELS = 4096


def kendall_normalization(d: int) -> float:
    return 2.0**d / (2.0 ** (d - 1) - 1.0)


def spearman_normalization(d: int) -> float:
    return 2.0**d * (d + 1) / (2.0**d - (d + 1))


@dataclass(frozen=True)
class FunctionalReport:
    name: str
    dim: int
    estimate: MeasureEstimate
    normalization: float

    @property
    def value(self) -> float:
        return self.estimate.value


# One --method serves all three functionals.  A named method takes the first
# path of its kind that applies; "exact_checkerboard" and "segment_quadrature"
# are older names of "exact" and "quadrature".
_METHODS = ("auto", "exact", "exact_checkerboard", "quadrature", "segment_quadrature",
            "monte_carlo")
_ALIASES = {"exact_checkerboard": "exact", "segment_quadrature": "quadrature"}


def _dispatch(name: str, C: Copula, method: str, paths) -> MeasureEstimate:
    """The estimate of the first path in ``paths`` that applies to C and
    serves ``method``.

    Each path is ``(kind, compute)``, in the order "auto" tries them;
    ``compute(C)`` returns None where the path does not apply.  "auto"
    takes the first path that applies, a named method the first that
    applies among the paths of its kind.  A path of kind None serves
    whichever method its estimate reports.
    """
    if method not in _METHODS:
        raise InputError(
            f"unknown {name} method {method!r}; expected one of {', '.join(_METHODS)}"
        )
    method = _ALIASES.get(method, method)
    for kind, compute in paths:
        if method != "auto" and kind not in (None, method):
            continue
        est = compute(C)
        if est is not None and method in ("auto", est.method):
            return est
    raise UnsupportedRepresentationError(
        f"{name} has no {method} path for {type(C).__name__} (d={C.dim})"
    )


def _exact(value: float, nodes: int = 1) -> MeasureEstimate:
    return MeasureEstimate(value, "exact", 0.0, nodes)


def _check_samples(samples) -> None:
    """A 3-sigma half-width needs a sample standard deviation: at least two
    draws.  Checked before any path runs, so no draw is made in vain."""
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 2:
        raise InputError(f"samples must be an integer >= 2, got {samples!r}")


def _workers() -> int:
    """How many Monte Carlo blocks are evaluated at once: the CPUs this
    process may run on, at most _MC_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MC_WORKERS)


def _monte_carlo(samples: int, block, draw) -> MeasureEstimate:
    """The mean of ``samples`` i.i.d. values with a 3-sigma half-width.

    The rows are cut into consecutive blocks of at most _BOX_ROWS.  For each
    block's slice ``rows``, ``draw(rows)`` makes its input ``x`` in the
    calling thread, in block order, and ``block(x)`` returns the block's
    values, which go into its rows of one preallocated array.  With more
    than one block and more than one CPU, up to W = ``_workers()`` blocks
    are evaluated at once: a block goes to an idle one of W - 1 worker
    threads, or, with none idle, is evaluated in the calling thread, so the
    memory beyond the value array (8 bytes per sample) is at most W blocks.
    One block, or W = 1, starts no thread.  Each value lands in its own slot
    and the statistics run over the full array once every block is in, so
    the estimate has the same bits for any W.  The variance is numpy's
    ``var(ddof=1)`` taken in place (the deviations overwrite the values),
    and the value and bound are plain floats.
    """
    vals = np.empty(samples)
    blocks = [slice(r, min(r + _BOX_ROWS, samples)) for r in range(0, samples, _BOX_ROWS)]

    def fill(rows, x):
        vals[rows] = block(x)

    workers = min(_workers(), len(blocks))
    if workers == 1:
        for rows in blocks:
            fill(rows, draw(rows))
    else:
        # imported here: it pulls in logging, which start-up need not pay
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers - 1) as pool:
            running = []
            for rows in blocks:
                x = draw(rows)
                for f in [f for f in running if f.done()]:
                    running.remove(f)
                    f.result()
                if len(running) < workers - 1:
                    running.append(pool.submit(fill, rows, x))
                else:
                    fill(rows, x)
            for f in running:
                f.result()
    mean = vals.mean()
    np.subtract(vals, mean, out=vals)
    np.square(vals, out=vals)
    std = math.sqrt(float(vals.sum()) / (samples - 1))
    return MeasureEstimate(float(mean), "monte_carlo", 3.0 * std / math.sqrt(samples), samples)


def _sampled(C: Copula, seed: int, samples: int, f) -> MeasureEstimate | None:
    """The Monte Carlo mean of ``f(V)`` over ``samples`` draws V ~ Q^C,
    drawn at once and read in row blocks; None without a sampler."""
    if not C.is_samplable:
        return None
    V = C.sample(seed, samples)
    return _monte_carlo(samples, f, lambda rows: V[rows])


def _uniform(d: int, seed: int, samples: int, f) -> MeasureEstimate:
    """The Monte Carlo mean of ``f(x)`` over ``samples`` uniform draws x in
    [0, 1]^d, drawn block by block from one generator: consecutive
    ``random((m, d))`` calls give the numbers of one ``(samples, d)`` call."""
    rng = np.random.default_rng(seed)
    return _monte_carlo(samples, f, lambda rows: rng.random((rows.stop - rows.start, d)))


def _refined(rule, n: int, coarse: int) -> MeasureEstimate:
    """``rule(n) -> (value, nodes)`` at n, bounded by the observed difference
    to the same rule at ``coarse``."""
    fine, nodes = rule(n)
    return MeasureEstimate(fine, "quadrature", abs(fine - rule(coarse)[0]), nodes)


def _moment_mean(C: Copula, *codes: int) -> MeasureEstimate | None:
    """The mean over ``codes`` of E[prod_k f(V_k)], V ~ Q^C, with f chosen
    by the code; None without an exact moment path."""
    d = C.dim
    try:
        ms = [C.product_moment(np.zeros(d), np.ones(d), [code] * d) for code in codes]
    except UnsupportedRepresentationError:
        return None
    return _exact(sum(ms) / len(ms))


def _cube_quadrature(C: Copula, nodes: int, integrand) -> MeasureEstimate | None:
    """Tensor Gauss-Legendre over the unit cube at ``nodes`` and at half as
    many (at least 4) per axis; None for d > 4.  ``integrand(axes)`` is the
    integrand's C-order tensor on the grid of the node arrays ``axes``; a
    node's weight is the left-to-right product of its axes' weights, made
    after the integrand, so that the weights are not held through it."""
    if C.dim > 4:
        return None

    def rule(n: int) -> tuple[float, int]:
        xs, ws = _gauss_nodes(n, 0.0, 1.0)
        vals = integrand([xs] * C.dim).ravel()
        w = functools.reduce(np.multiply.outer, [ws] * C.dim).ravel()
        return float(w @ vals), w.size

    return _refined(rule, nodes, max(4, nodes // 2))


def _normalised(
    name: str, d: int, inner: MeasureEstimate, norm: float
) -> FunctionalReport:
    """The report of norm * (inner - 2^-d), as tau and rho are normalised."""
    est = MeasureEstimate(
        norm * (inner.value - 2.0**-d),
        inner.method,
        norm * inner.error_bound,
        inner.samples_or_nodes,
    )
    return FunctionalReport(name, d, est, norm)


def _simpson_segments(C: Copula, panels: int) -> MeasureEstimate | None:
    """Composite Simpson of int_0^1 C(gamma_s(t)) dt per segment, with the
    Richardson difference against half the panel count as error bound; the
    half-panel nodes are every second full-panel node, so both rules read
    one set of cdf values, which needs an even panel count.  M and W are
    read as their one-segment twins; other non-segment copulas give None."""
    d = C.dim
    if isinstance(C, UpperFrechet):
        C = SegmentCopula(np.zeros((1, d)), np.ones((1, d)), [1.0])
    elif isinstance(C, LowerFrechet2d):
        C = SegmentCopula([[0.0, 1.0]], [[1.0, 0.0]], [1.0])
    if not isinstance(C, SegmentCopula):
        return None
    if panels < 2 or panels % 2:
        raise InputError(f"Simpson panels must be even and at least 2, got {panels}")

    def simpson_weights(n: int) -> np.ndarray:
        w = np.ones(2 * n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w / (6.0 * n)

    t = np.linspace(0.0, 1.0, 2 * panels + 1)
    w_full = simpson_weights(panels)
    w_half = simpson_weights(panels // 2)
    full = half = 0.0
    for s in range(len(C.masses)):
        pts = C.starts[s][None, :] + t[:, None] * C.dirs[s][None, :]
        vals = C.cdf_many(pts)
        full += C.masses[s] * float(w_full @ vals)
        # a strided dot sums in another order than a contiguous one
        half += C.masses[s] * float(w_half @ vals[::2].copy())
    return MeasureEstimate(full, "quadrature", abs(full - half), 2 * panels + 1)


def _kendall_board(C: Copula) -> MeasureEstimate | None:
    if isinstance(C, CheckerboardCopula):
        return _exact(C.kendall_self_integral(), C.masses.size)
    return None


def _kendall_product(C: Copula) -> MeasureEstimate | None:
    # E[prod U_k] under independence
    return _exact(2.0**-C.dim) if isinstance(C, ProductCopula) else None


def _kendall_glue(
    C: Copula, samples: int, seed: int, panels: int
) -> MeasureEstimate | None:
    """int (C x D) d(Q^C x Q^D) factorises into the halves' "auto"
    estimates; the product is exact only if both halves are."""
    if not isinstance(C, GlueProduct):
        return None
    left = kendall_integral(C.left, "auto", samples, seed, panels)
    right = kendall_integral(C.right, "auto", samples, seed, panels)
    value = left.value * right.value
    nodes = left.samples_or_nodes + right.samples_or_nodes
    tags = {left.method, right.method}
    if tags == {"exact"}:
        return _exact(value, nodes)
    err = (
        abs(left.value) * right.error_bound
        + abs(right.value) * left.error_bound
        + left.error_bound * right.error_bound
    )
    tag = "monte_carlo" if "monte_carlo" in tags else "quadrature"
    return MeasureEstimate(value, tag, err, nodes)


def _kendall_grids(C: Copula) -> MeasureEstimate:
    """The corner average of C projected onto grids of n and n/2 cells."""
    n = {2: 64, 3: 48, 4: 20}.get(C.dim, 10)
    return _refined(lambda k: (discretize(C, k).kendall_self_integral(), k), n, n // 2)


def kendall_integral(
    C: Copula,
    method: str = "auto",
    samples: int = MC_DEFAULT_SAMPLES,
    seed: int = 0,
    panels: int = SIMPSON_PANELS,
) -> MeasureEstimate:
    """int C dQ^C (the un-normalised Kendall functional).  ``method`` is one
    of ``_METHODS``; any other name raises InputError, and so does
    ``samples`` below 2."""
    _check_samples(samples)
    return _dispatch("kendall_tau", C, method, (
        ("exact", _kendall_board),
        ("quadrature", lambda C: _simpson_segments(C, panels)),
        ("exact", _kendall_product),
        (None, lambda C: _kendall_glue(C, samples, seed, panels)),
        ("monte_carlo", lambda C: _sampled(C, seed, samples, C.cdf_many)),
        ("quadrature", _kendall_grids),
    ))


def kendall_tau(
    C: Copula,
    method: str = "auto",
    samples: int = MC_DEFAULT_SAMPLES,
    seed: int = 0,
    panels: int = SIMPSON_PANELS,
) -> FunctionalReport:
    """Kendall's tau; minimised (value -1/(2^{d-1}-1)) exactly by the
    Kendall-countermonotonic copulas."""
    inner = kendall_integral(C, method, samples, seed, panels)
    return _normalised("kendall_tau", C.dim, inner, kendall_normalization(C.dim))


def spearman_rho(
    C: Copula,
    method: str = "auto",
    samples: int = MC_DEFAULT_SAMPLES,
    seed: int = 0,
    quad_nodes: int = 24,
) -> FunctionalReport:
    """Spearman's rho: strictly concordance order preserving, hence
    minimised by minimal copulas only.  ``method`` is one of
    ``_METHODS``; any other name raises InputError, and so does
    ``samples`` below 2."""
    _check_samples(samples)
    d = C.dim

    def mean_cdf_pair(C: Copula) -> MeasureEstimate:
        # uniform cube draws: needs only cdf evaluations.  The survival half
        # goes first, so C's values are not held through its larger
        # temporaries; + commutes, so the bits are those of C + S
        S = survival(C)
        return _uniform(d, seed, samples, lambda x: 0.5 * (S.cdf_many(x) + C.cdf_many(x)))

    inner = _dispatch("spearman_rho", C, method, (
        # int C dQ^Pi = E[prod (1-V_k)] and int (tau C) dQ^Pi = E[prod V_k]
        # for V ~ Q^C (Fubini on the indicator of [0, u])
        ("exact", lambda C: _moment_mean(C, MOMENT_1MV, MOMENT_V)),
        ("quadrature", lambda C: _cube_quadrature(
            C, quad_nodes, lambda ax: 0.5 * (C.cdf_grid(ax) + survival(C).cdf_grid(ax)))),
        ("monte_carlo", mean_cdf_pair),
    ))
    return _normalised("spearman_rho", d, inner, spearman_normalization(d))


def pi_integral(
    C: Copula,
    method: str = "auto",
    samples: int = MC_DEFAULT_SAMPLES,
    seed: int = 0,
    quad_nodes: int = 24,
) -> FunctionalReport:
    """int Pi dQ^C = E[prod_k V_k]: continuous and strictly concordance
    order preserving.  ``method`` is one of ``_METHODS``; any other
    name raises InputError, and so does ``samples`` below 2."""
    _check_samples(samples)
    upper = [1.0] * C.dim  # the box [x, 1]'s upper face on every axis
    est = _dispatch("pi_integral", C, method, (
        ("exact", lambda C: _moment_mean(C, MOMENT_V)),
        # E[prod V_k] = int Q^C[[x, 1]] dx (Fubini on the indicator of [x, 1])
        ("quadrature", lambda C: _cube_quadrature(
            C, quad_nodes, lambda ax: C._lattice_box_mass(_lattice(ax), upper))),
        ("monte_carlo", lambda C: _sampled(C, seed, samples, lambda V: V.prod(axis=1))),
        # without a sampler, over uniform draws x of the same Q^C[[x, 1]]
        ("monte_carlo", lambda C: _uniform(
            C.dim, seed, samples, lambda x: C._lattice_box_mass(x.T, upper))),
    ))
    return FunctionalReport("pi_integral", C.dim, est, 1.0)


def reflection_sum(functional, C: Copula, **kwargs) -> float:
    """sum over all K subseteq {0..d-1} of functional(reflect(C, K)).

    A measure of concordance must make this vanish; checkerboards and
    segments reflect exactly, so the sum is a sharp numeric certificate.
    """
    import itertools

    total = 0.0
    for r in range(C.dim + 1):
        for K in itertools.combinations(range(C.dim), r):
            total += functional(reflect(C, K), **kwargs).value
    return total

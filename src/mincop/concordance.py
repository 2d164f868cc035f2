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
  Carlo: rho over uniform draws, the Pi-integral over C's sampler.  rho
  reads tau C as a box mass of C (``Reflected.cdf_many``), and the
  Pi-integral's quadrature integrates Q^C[[x, 1]]; the extreme Clayton
  computes its cdf and such box masses on one separable kernel, which
  takes phi's integer power by repeated products.

Quadrature reports the difference to a coarser rule, Monte Carlo a 3-sigma
half-width (so ``samples`` must be at least 2).  Normalisation constants are recomputed from d at call time
and echoed in every report so unit errors stay visible.
"""

from __future__ import annotations

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
    _gauss_nodes,
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


def _monte_carlo(vals: np.ndarray) -> MeasureEstimate:
    """The mean of i.i.d. ``vals`` with a 3-sigma half-width."""
    err = 3.0 * float(vals.std(ddof=1)) / np.sqrt(len(vals))
    return MeasureEstimate(float(vals.mean()), "monte_carlo", err, len(vals))


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
    """Tensor Gauss-Legendre of ``integrand(points)`` over the unit cube at
    ``nodes`` and at half as many (at least 4) per axis; None for d > 4."""
    if C.dim > 4:
        return None

    def rule(n: int) -> tuple[float, int]:
        xs, ws = _gauss_nodes(n, 0.0, 1.0)
        pts = np.column_stack(
            [m.ravel() for m in np.meshgrid(*([xs] * C.dim), indexing="ij")]
        )
        w = np.ones(len(pts))
        for m in np.meshgrid(*([ws] * C.dim), indexing="ij"):
            w = w * m.ravel()
        return float(w @ integrand(pts)), len(pts)

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
        ("monte_carlo", lambda C: _monte_carlo(C.cdf_many(C.sample(seed, samples)))
         if C.is_samplable else None),
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

    def mean_cdf_pair(pts: np.ndarray) -> np.ndarray:
        return 0.5 * (C.cdf_many(pts) + survival(C).cdf_many(pts))

    inner = _dispatch("spearman_rho", C, method, (
        # int C dQ^Pi = E[prod (1-V_k)] and int (tau C) dQ^Pi = E[prod V_k]
        # for V ~ Q^C (Fubini on the indicator of [0, u])
        ("exact", lambda C: _moment_mean(C, MOMENT_1MV, MOMENT_V)),
        ("quadrature", lambda C: _cube_quadrature(C, quad_nodes, mean_cdf_pair)),
        # uniform cube draws: needs only cdf evaluations
        ("monte_carlo", lambda C: _monte_carlo(
            mean_cdf_pair(np.random.default_rng(seed).random((samples, d))))),
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
    est = _dispatch("pi_integral", C, method, (
        ("exact", lambda C: _moment_mean(C, MOMENT_V)),
        # E[prod V_k] = int Q^C[[x, 1]] dx (Fubini on the indicator of [x, 1])
        ("quadrature", lambda C: _cube_quadrature(
            C, quad_nodes, lambda pts: C.box_mass_many(pts, np.ones_like(pts)))),
        ("monte_carlo", lambda C: _monte_carlo(C.sample(seed, samples).prod(axis=1))
         if C.is_samplable else None),
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

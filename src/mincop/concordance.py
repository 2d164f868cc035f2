"""Concordance functionals: Kendall's tau, Spearman's rho, the Pi-integral.

Multivariate Kendall's tau and Spearman's rho, normalised so M scores 1:

    tau(C) = 2^d / (2^{d-1} - 1) * ( int C dQ^C - 2^{-d} )
    rho(C) = 2^d (d+1) / (2^d - (d+1)) * ( int (C + tau C)/2 dQ^Pi - 2^{-d} )

Exact paths and their justifications:

* checkerboard Kendall integral: C is multilinear on every cell of its own
  grid, so the cell average equals the corner average; int C dQ^C is the
  mass-weighted corner average, computed in closed form.
* segment Kendall integral: composite Simpson along each segment.  The cdf
  restricted to a line is piecewise linear, so Simpson is exact away from
  finitely many kink panels; the reported error bound is the observed
  Richardson difference between the half and full panel counts, never an
  assumption.
* rho and the Pi-integral reduce to polynomial moments of the copula
  measure: int C dQ^Pi = E[prod_k (1 - V_k)] and
  int (tau C) dQ^Pi = E[prod_k V_k] with V ~ Q^C, both available exactly
  through ``product_moment`` for checkerboards, segments, glue products,
  mixtures and surgery nodes.  Only representations without a moment path
  (e.g. the extreme Clayton) fall back to tensor Gauss-Legendre quadrature
  (d <= 4) or Monte Carlo over uniform draws (d >= 5).  Both fallbacks read
  tau C as a box mass of C (``Reflected.cdf_many``), and the Pi-integral's
  quadrature integrates Q^C[[x, 1]]; the extreme Clayton computes such box
  masses in one separable pass (``ClaytonExtreme.box_mass_many``).

Normalisation constants are recomputed from d at call time and echoed in
every report so unit errors stay visible.
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
    MixtureCopula,
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


# One --method serves all three functionals: "exact" and "exact_checkerboard"
# name the same path, as do "quadrature" and "segment_quadrature".
_METHODS = ("auto", "exact", "exact_checkerboard", "quadrature", "segment_quadrature",
            "monte_carlo")
_KENDALL_ALIASES = {"exact": "exact_checkerboard", "quadrature": "segment_quadrature"}


def _check_method(name: str, method: str) -> None:
    if method not in _METHODS:
        raise InputError(
            f"unknown {name} method {method!r}; expected one of {', '.join(_METHODS)}"
        )


def _simpson_segments(C: SegmentCopula, panels: int) -> tuple[float, float]:
    """Composite Simpson of int_0^1 C(gamma_s(t)) dt per segment, with the
    Richardson difference against half the panel count as error bound; the
    half-panel nodes are every second full-panel node, so both rules read
    one set of cdf values, which needs an even panel count."""
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
    return full, abs(full - half)


def kendall_integral(
    C: Copula,
    method: str = "auto",
    samples: int = MC_DEFAULT_SAMPLES,
    seed: int = 0,
    panels: int = SIMPSON_PANELS,
) -> MeasureEstimate:
    """int C dQ^C (the un-normalised Kendall functional).  ``method`` is one
    of ``_METHODS``; "exact" reads as "exact_checkerboard" and "quadrature"
    as "segment_quadrature"."""
    _check_method("kendall", method)
    method = _KENDALL_ALIASES.get(method, method)
    if method == "exact_checkerboard" or (
        method == "auto" and isinstance(C, CheckerboardCopula)
    ):
        if not isinstance(C, CheckerboardCopula):
            raise UnsupportedRepresentationError(
                "exact_checkerboard requires a checkerboard copula"
            )
        return MeasureEstimate(C.kendall_self_integral(), "exact", 0.0, C.masses.size)
    if method in ("auto", "segment_quadrature") and isinstance(
        C, (UpperFrechet, LowerFrechet2d)
    ):
        C = _segment_twin(C)
    if method == "segment_quadrature" or (
        method == "auto" and isinstance(C, SegmentCopula)
    ):
        if not isinstance(C, SegmentCopula):
            raise UnsupportedRepresentationError(
                "segment_quadrature requires a segment copula"
            )
        value, err = _simpson_segments(C, panels)
        return MeasureEstimate(value, "quadrature", err, 2 * panels + 1)
    if method == "monte_carlo":
        rng_pts = C.sample(seed, samples)
        vals = C.cdf_many(rng_pts)
        err = 3.0 * float(vals.std(ddof=1)) / np.sqrt(samples)
        return MeasureEstimate(float(vals.mean()), "monte_carlo", err, samples)
    # auto dispatch for the remaining representations
    if isinstance(C, ProductCopula):
        # E[prod U_k] under independence
        return MeasureEstimate(2.0 ** -C.dim, "exact", 0.0, 1)
    if isinstance(C, GlueProduct):
        # int (C x D) d(Q^C x Q^D) factorises
        left = kendall_integral(C.left, "auto", samples, seed, panels)
        right = kendall_integral(C.right, "auto", samples, seed, panels)
        err = (
            abs(left.value) * right.error_bound
            + abs(right.value) * left.error_bound
            + left.error_bound * right.error_bound
        )
        tags = {left.method, right.method}
        if tags == {"exact"}:
            method_tag = "exact"
        elif "monte_carlo" in tags:
            method_tag = "monte_carlo"
        else:
            method_tag = "quadrature"
        return MeasureEstimate(
            left.value * right.value,
            method_tag,
            0.0 if method_tag == "exact" else err,
            left.samples_or_nodes + right.samples_or_nodes,
        )
    if C.is_samplable:
        return kendall_integral(C, "monte_carlo", samples, seed, panels)
    # last resort: project onto a grid and report the refinement difference
    n = {2: 64, 3: 48, 4: 20}.get(C.dim, 10)
    coarse = discretize(C, n // 2).kendall_self_integral()
    fine = discretize(C, n).kendall_self_integral()
    return MeasureEstimate(fine, "quadrature", abs(fine - coarse), n)


def _segment_twin(C: Copula) -> SegmentCopula:
    d = C.dim
    if isinstance(C, UpperFrechet):
        return SegmentCopula(np.zeros((1, d)), np.ones((1, d)), [1.0])
    if isinstance(C, LowerFrechet2d):
        return SegmentCopula([[0.0, 1.0]], [[1.0, 0.0]], [1.0])
    raise UnsupportedRepresentationError(f"no segment twin for {type(C).__name__}")


def kendall_tau(
    C: Copula,
    method: str = "auto",
    samples: int = MC_DEFAULT_SAMPLES,
    seed: int = 0,
    panels: int = SIMPSON_PANELS,
) -> FunctionalReport:
    """Kendall's tau; minimised (value -1/(2^{d-1}-1)) exactly by the
    Kendall-countermonotonic copulas."""
    d = C.dim
    norm = kendall_normalization(d)
    inner = kendall_integral(C, method, samples, seed, panels)
    est = MeasureEstimate(
        norm * (inner.value - 2.0**-d),
        inner.method,
        norm * inner.error_bound,
        inner.samples_or_nodes,
    )
    return FunctionalReport("kendall_tau", d, est, norm)


def _lebesgue_mean_cdf_pair(C: Copula) -> tuple[float, float] | None:
    """(int C dQ^Pi, int (tau C) dQ^Pi) via exact moments, or None.

    int C dLebesgue = E[prod (1-V_k)] and int (tau C) dLebesgue =
    E[prod V_k] for V ~ Q^C (Fubini on the indicator of [0,u]).
    """
    d = C.dim
    lo, hi = np.zeros(d), np.ones(d)
    try:
        m1 = C.product_moment(lo, hi, [MOMENT_1MV] * d)
        m2 = C.product_moment(lo, hi, [MOMENT_V] * d)
    except UnsupportedRepresentationError:
        return None
    return m1, m2


def _cube_quadrature(C: Copula, nodes: int, integrand) -> tuple[float, int]:
    """Tensor Gauss-Legendre over the unit cube of ``integrand(points)``."""
    xs, ws = _gauss_nodes(nodes, 0.0, 1.0)
    pts = np.column_stack(
        [m.ravel() for m in np.meshgrid(*([xs] * C.dim), indexing="ij")]
    )
    w = np.ones(len(pts))
    for m in np.meshgrid(*([ws] * C.dim), indexing="ij"):
        w = w * m.ravel()
    return float(w @ integrand(pts)), len(pts)


def _rho_quadrature(C: Copula, nodes: int) -> tuple[float, int]:
    tC = survival(C)
    return _cube_quadrature(
        C, nodes, lambda pts: 0.5 * (C.cdf_many(pts) + tC.cdf_many(pts))
    )


def spearman_rho(
    C: Copula,
    method: str = "auto",
    samples: int = MC_DEFAULT_SAMPLES,
    seed: int = 0,
    quad_nodes: int = 24,
) -> FunctionalReport:
    """Spearman's rho: strictly concordance order preserving, hence
    minimised by minimal copulas only.  ``method`` is one of
    ``_METHODS``; any other name raises InputError."""
    _check_method("spearman_rho", method)
    d = C.dim
    norm = spearman_normalization(d)
    if method in ("exact", "exact_checkerboard", "auto"):
        pair = _lebesgue_mean_cdf_pair(C)
        if pair is not None:
            value = norm * (0.5 * (pair[0] + pair[1]) - 2.0**-d)
            return FunctionalReport(
                "spearman_rho", d, MeasureEstimate(value, "exact", 0.0, 1), norm
            )
        if method != "auto":
            raise UnsupportedRepresentationError(
                "no exact moment path for this representation"
            )
    if method in ("auto", "quadrature", "segment_quadrature") and d <= 4:
        fine, n_pts = _rho_quadrature(C, quad_nodes)
        coarse, _ = _rho_quadrature(C, max(4, quad_nodes // 2))
        value = norm * (fine - 2.0**-d)
        err = norm * abs(fine - coarse)
        return FunctionalReport(
            "spearman_rho", d, MeasureEstimate(value, "quadrature", err, n_pts), norm
        )
    # Monte Carlo over uniform cube draws: needs only cdf evaluations
    rng = np.random.default_rng(seed)
    U = rng.random((samples, d))
    tC = survival(C)
    vals = 0.5 * (C.cdf_many(U) + tC.cdf_many(U))
    err = norm * 3.0 * float(vals.std(ddof=1)) / np.sqrt(samples)
    value = norm * (float(vals.mean()) - 2.0**-d)
    return FunctionalReport(
        "spearman_rho", d, MeasureEstimate(value, "monte_carlo", err, samples), norm
    )


def pi_integral(
    C: Copula,
    method: str = "auto",
    samples: int = MC_DEFAULT_SAMPLES,
    seed: int = 0,
    quad_nodes: int = 24,
) -> FunctionalReport:
    """int Pi dQ^C = E[prod_k V_k]: continuous and strictly concordance
    order preserving.  ``method`` is one of ``_METHODS``; any other
    name raises InputError."""
    _check_method("pi_integral", method)
    d = C.dim
    lo, hi = np.zeros(d), np.ones(d)
    if method in ("exact", "exact_checkerboard", "auto"):
        try:
            value = C.product_moment(lo, hi, [MOMENT_V] * d)
            return FunctionalReport(
                "pi_integral", d, MeasureEstimate(value, "exact", 0.0, 1), 1.0
            )
        except UnsupportedRepresentationError:
            if method != "auto":
                raise
    if method in ("auto", "quadrature", "segment_quadrature") and d <= 4:
        # E[prod V_k] = int Q^C[[x, 1]] dx (Fubini on the indicator of [x, 1])
        integrand = lambda pts: C.box_mass_many(pts, np.ones_like(pts))
        fine, n_pts = _cube_quadrature(C, quad_nodes, integrand)
        coarse, _ = _cube_quadrature(C, max(4, quad_nodes // 2), integrand)
        return FunctionalReport(
            "pi_integral",
            d,
            MeasureEstimate(fine, "quadrature", abs(fine - coarse), n_pts),
            1.0,
        )
    if not C.is_samplable:
        raise UnsupportedRepresentationError(
            "pi_integral needs a moment path, quadrature (d <= 4) or a sampler"
        )
    pts = C.sample(seed, samples)
    vals = pts.prod(axis=1)
    err = 3.0 * float(vals.std(ddof=1)) / np.sqrt(samples)
    return FunctionalReport(
        "pi_integral",
        d,
        MeasureEstimate(float(vals.mean()), "monte_carlo", err, samples),
        1.0,
    )


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

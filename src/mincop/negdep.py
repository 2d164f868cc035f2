"""Extreme-negative-dependence certificates and the minimality refuter.

A copula is *Kendall-countermonotonic* (tau-CM) when, for every interior u,
at least one of the corner masses Q^C[[0,u]], Q^C[[u,1]] vanishes; this is
equivalent to int C dQ^C = 0 and to minimising multivariate Kendall's tau.
Every minimal copula (in the concordance order) is tau-CM, so exhibiting an
interior point with both corner masses positive refutes minimality
constructively:

1. ``find_corner_pair`` reads both corner masses at the interior vertices
   off the orthant-mass tensors (``transforms.orthant_masses``), picks u
   with the largest min{C(u), Q^C[[u,1]]} = p, and moves the larger corner
   along the ray map alpha -> C(alpha u) (or the survival copula's, from
   1-u) until both corner boxes carry exactly p.  A copula that is exactly
   a board (``transforms.as_board``: a checkerboard, Pi, and mixtures,
   glues, reflections and permutations of boards) is scanned at its own
   vertices and solves the ray exactly; other representations scan a
   uniform grid augmented with their breakpoints and bisect.  No board is
   tau-CM (it has a density), so ``refute_minimality`` and
   ``tau_cm_certificate`` scan a board with no refutable vertex again at
   its cell midpoints; ``tau_cm_defect`` and ``descend`` keep the vertex
   scan.
2. ``refute_minimality`` performs the corner surgery: the two comonotone
   corner pieces are replaced by a cross-glued, de-comonotonised pair,
   producing D with D <= C, tau(D) <= tau(C) and D(a) = C(a) - p.  On a
   board D is the board read off the mass tensor refined by the cut
   planes at a and b, which makes every check exact; C is verified as the
   same refinement, its cells split onto D's own cut arrays, so the order
   check reads both boards on those cuts with no merge, and C's rho is
   summed over the refined cells.  On any other copula D is a
   ``RefutedCopula`` node.  The D that is returned is the D that was
   verified: the certificate carries its order relation, validity report
   and strict Spearman-rho drop; verification failure is an internal
   error, never a silent pass.
3. ``descend`` iterates the tensor surgery on a checkerboard until the grid
   tau-CM defect vanishes; each step is measure-exact, so total mass and
   margins stay exact with no correction.  The loop is an artifact-level
   heuristic (the existence theorem behind it is non-constructive); stalls
   are reported honestly.

A *K-countermonotonic* certificate instead checks that the whole mass sits
on a monotone-transformed hyperplane sum_{k in K} g_k(u_k) = c; for
segment-supported copulas this is exact (the sum along each segment either
is identically c or meets it in finitely many points).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EXACT_TOL,
    CheckerboardCopula,
    Copula,
    GlueProduct,
    MixtureCopula,
    RefutedCopula,
    SegmentCopula,
    _along,
    _first_max,
    default_resolution,
    grid_axes,
    merge_cuts,
    validate,
)
from .concordance import spearman_rho
from .errors import InputError, RefuterInternalError, UnsupportedRepresentationError
from .order import OrderResult, Relation, concordance_leq
from .transforms import (
    _split_cells,
    as_board,
    discretize,
    orthant_masses,
    survival,
    uniform_cuts,
)

__all__ = [
    "GFunc",
    "HyperplaneSpec",
    "TauCmCertificate",
    "CornerPair",
    "RefutationCertificate",
    "DescentStep",
    "DescentResult",
    "tau_cm_defect",
    "tau_cm_certificate",
    "hyperplane_mass",
    "find_corner_pair",
    "refute_minimality",
    "descend",
    "trace_csv",
]

BISECT_TOL = 1e-12


# ---------------------------------------------------------------------------
# tau-CM defect
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TauCmCertificate:
    """Grid-level tau-CM certificate: the worst interior value of
    min{C(u), Q^C[[u,1]]}, where it occurred, and the tolerance the verdict
    was reached with."""

    grid: str
    defect: float
    worst_point: tuple
    tol: float = EXACT_TOL

    @property
    def passed(self) -> bool:
        return self.defect <= self.tol


def _lowered(C: Copula, grid: int | None) -> Copula:
    """C as the board that equals it (``as_board``) when no grid is given,
    so that the exact board paths apply; otherwise C itself."""
    board = as_board(C) if grid is None else None
    return C if board is None else board


def _scan(C: Copula, grid: int | None) -> tuple[float, tuple, str, float, float]:
    """(defect, worst point, grid description, C(u), Q^C[[u,1]] at the worst
    point u) over the interior vertices: the one scan behind
    ``tau_cm_defect``, ``find_corner_pair`` and each step of ``descend``."""
    C = _lowered(C, grid)
    if grid is None and isinstance(C, CheckerboardCopula):
        cuts, kind = C.cuts, "checkerboard vertices"
    else:
        res = grid if grid is not None else default_resolution(C.dim)
        cuts, kind = grid_axes([C], res), f"uniform {res}+breakpoints"
    desc = f"{kind}, sizes {[len(c) for c in cuts]}"
    if any(len(c) < 3 for c in cuts):
        return 0.0, (), desc, 0.0, 0.0
    interior = (slice(1, -1),) * C.dim
    lower, upper = (X[interior] for X in orthant_masses(C, cuts))
    defect = np.minimum(lower, upper)
    idx = np.unravel_index(_first_max(defect), defect.shape)
    worst = tuple(c[i + 1] for c, i in zip(cuts, idx))
    return float(defect[idx]), worst, desc, float(lower[idx]), float(upper[idx])


def tau_cm_defect(
    C: Copula, grid: int | None = None
) -> tuple[float, tuple, str]:
    """max over interior scan points of min{C(u), (tau C)(1-u)}.

    Returns (defect, worst_point, grid description).  A defect <= 1e-9 is a
    grid-level tau-CM certificate; a larger defect exhibits a point whose
    two corner boxes both carry mass.  Ties break lexicographically.
    Copulas that are boards (with ``grid=None``; see ``as_board``) read
    both corner masses at their interior vertices off the mass tensor, with
    no interpolation.
    """
    defect, worst, desc, _, _ = _scan(C, grid)
    return defect, worst, desc


def _refutable_scan(C: Copula, grid: int | None, tol: float) -> tuple[Copula, tuple]:
    """C lowered as ``_scan`` lowers it, and the scan to refute it on.

    No board is tau-CM: at the midpoint of a cell of mass m both corner
    boxes hold at least m/2^d.  So a board whose scan finds no defect above
    ``tol`` is rebuilt, as the same measure, on its cuts plus its cell
    midpoints, and scanned at those vertices.
    """
    C = _lowered(C, grid)
    scan = _scan(C, grid)
    if scan[0] <= tol and isinstance(C, CheckerboardCopula):
        cuts = [merge_cuts(c, 0.5 * (c[:-1] + c[1:])) for c in C.cuts]
        C = CheckerboardCopula(cuts, _split_cells(C, cuts))
        scan = _scan(C, None)
    return C, scan


def tau_cm_certificate(
    C: Copula, grid: int | None = None, tol: float = EXACT_TOL
) -> TauCmCertificate:
    """The tau-CM verdict ``refute_minimality`` reaches without surgery: the
    ``tau_cm_defect`` scan, except that a board it passes at ``tol`` is
    scanned again at its cell midpoints, where no board passes."""
    _, (defect, worst, desc, _, _) = _refutable_scan(C, grid, tol)
    return TauCmCertificate(desc, defect, worst, tol)


# ---------------------------------------------------------------------------
# K-CM hyperplane mass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GFunc:
    """A strictly increasing continuous transform of one coordinate:
    affine alpha*u + beta (alpha > 0) or power u**gamma (gamma > 0)."""

    form: str
    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.form not in ("affine", "power"):
            raise InputError(f"unsupported g form {self.form!r}")
        if self.form == "affine" and self.alpha <= 0:
            raise InputError("affine g needs alpha > 0")
        if self.form == "power" and self.gamma <= 0:
            raise InputError("power g needs gamma > 0")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.form == "affine":
            return self.alpha * x + self.beta
        return np.power(x, self.gamma)


@dataclass(frozen=True)
class HyperplaneSpec:
    """The K-CM witness data: axes K (0-based), one transform per axis in K,
    and the level c of sum_{k in K} g_k(u_k)."""

    K: tuple[int, ...]
    g: tuple[GFunc, ...]
    c: float

    def __post_init__(self):
        if len(self.K) != len(self.g):
            raise InputError("one g per axis in K")
        if len(set(self.K)) != len(self.K) or len(self.K) < 1:
            raise InputError("K must be a nonempty set of distinct axes")

    def sum_values(self, pts: np.ndarray) -> np.ndarray:
        total = np.zeros(pts.shape[:-1])
        for k, g in zip(self.K, self.g):
            total += g(pts[..., k])
        return total


_CONST_PARAMS = np.array([0.0, 0.137, 1 / 3, 0.5, 1 / np.sqrt(2), 0.789, 1.0])


def _segment_sums(C: SegmentCopula, spec: HyperplaneSpec) -> np.ndarray:
    """sum_{k in K} g_k along each segment at the parameters _CONST_PARAMS,
    as a (segments, params) array."""
    return spec.sum_values(C.starts[:, None, :] + _CONST_PARAMS[:, None] * C.dirs[:, None, :])


def _segment_band_mass(C: SegmentCopula, spec: HyperplaneSpec, eps: float) -> float:
    """Exact for eps = 0: along each segment the sum is either identically c
    (full mass) or an analytic non-constant function of the parameter
    (finitely many roots, zero mass).  For eps > 0 the band is measured by a
    fine parameter subdivision."""
    total = 0.0
    for s, h in enumerate(_segment_sums(C, spec)):
        if np.max(np.abs(h - spec.c)) <= 1e-12:
            total += C.masses[s]
        elif eps > 0:
            t = np.linspace(0.0, 1.0, 8193)
            mids = 0.5 * (t[:-1] + t[1:])
            pm = C.starts[s][None, :] + mids[:, None] * C.dirs[s][None, :]
            hit = np.abs(spec.sum_values(pm) - spec.c) <= eps
            total += C.masses[s] * hit.mean()
    return total


def _checkerboard_band_mass(
    C: CheckerboardCopula, spec: HyperplaneSpec, eps: float
) -> float:
    """Lower bound: mass of the cells whose sum-range lies inside the band
    (g increasing makes per-cell ranges interval arithmetic)."""
    lo_tot = np.zeros(C.masses.shape)
    hi_tot = np.zeros(C.masses.shape)
    for k, g in zip(spec.K, spec.g):
        lo_tot = lo_tot + _along(g(C.cuts[k][:-1]), k, C.dim)
        hi_tot = hi_tot + _along(g(C.cuts[k][1:]), k, C.dim)
    inside = (lo_tot >= spec.c - eps - 1e-12) & (hi_tot <= spec.c + eps + 1e-12)
    # board totals carry discretization noise at the cell-count scale
    return float(np.clip(C.masses[inside].sum(), 0.0, 1.0))


def _constant_part_sum(part: Copula, K: list[int], g: list[GFunc]) -> float | None:
    """If sum_{k in K} g_k(u_k) is a.s. constant under Q^part, return the
    constant, else None.  Exact for segment parts."""
    if not isinstance(part, SegmentCopula):
        return None
    h = _segment_sums(part, HyperplaneSpec(tuple(K), tuple(g), 0.0))
    if np.ptp(h, axis=1).max() > 1e-12 or np.ptp(h[:, 0]) > 1e-12:
        return None
    return float(h[0, 0])


def hyperplane_mass(C: Copula, spec: HyperplaneSpec, eps: float = 0.0) -> float:
    """Q^C-mass of the band { |sum_{k in K} g_k(u_k) - c| <= eps }.

    Exact for segment copulas; a cell-inclusion lower bound for
    checkerboards; Monte Carlo (10^6 draws, seed 0) otherwise.  A value of
    1 with eps = 0 is K-CM *evidence at the representation's exactness
    level*, never a theorem about all g families.
    """
    if any(k < 0 or k >= C.dim for k in spec.K):
        raise InputError(f"hyperplane axes {spec.K} outside 0..{C.dim - 1}")
    if isinstance(C, SegmentCopula):
        return _segment_band_mass(C, spec, eps)
    if isinstance(C, CheckerboardCopula):
        return _checkerboard_band_mass(C, spec, eps)
    if isinstance(C, MixtureCopula):
        return float(
            sum(w * hyperplane_mass(c, spec, eps) for c, w in C.parts)
        )
    if isinstance(C, GlueProduct):
        dl = C.left.dim
        KL = [(k, g) for k, g in zip(spec.K, spec.g) if k < dl]
        KR = [(k - dl, g) for k, g in zip(spec.K, spec.g) if k >= dl]
        if KL and KR:
            cl = _constant_part_sum(C.left, [k for k, _ in KL], [g for _, g in KL])
            cr = _constant_part_sum(C.right, [k for k, _ in KR], [g for _, g in KR])
            if cl is not None and cr is not None:
                return 1.0 if abs(cl + cr - spec.c) <= max(eps, 1e-12) else 0.0
        elif KL:
            return hyperplane_mass(
                C.left, HyperplaneSpec(tuple(k for k, _ in KL), tuple(g for _, g in KL), spec.c), eps
            )
        elif KR:
            return hyperplane_mass(
                C.right, HyperplaneSpec(tuple(k for k, _ in KR), tuple(g for _, g in KR), spec.c), eps
            )
    if C.is_samplable:
        pts = C.sample(0, 10**6)
        h = spec.sum_values(pts)
        band = max(eps, 1e-12)
        return float((np.abs(h - spec.c) <= band).mean())
    raise UnsupportedRepresentationError(
        "hyperplane_mass needs a segment, checkerboard or samplable copula"
    )


# ---------------------------------------------------------------------------
# Corner-pair search: equal masses in the lower and upper corner boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CornerPair:
    a: np.ndarray
    b: np.ndarray
    p: float


def _bisect_monotone(f, target: float, lo: float, hi: float) -> float:
    """Find x with f(x) ~= target for continuous nondecreasing f."""
    flo, fhi = f(lo), f(hi)
    if not (flo <= target <= fhi):
        raise RefuterInternalError(
            f"bisection bracket broken: f({lo})={flo}, f({hi})={fhi}, target={target}"
        )
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        # adjacent doubles: no midpoint lies between them
        if mid == lo or mid == hi:
            break
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    return hi


def _ray(X: Copula, u: np.ndarray, p: float) -> float:
    """The smallest alpha in [0,1] with X(alpha u) = p: solved exactly on a
    board, bisected on the continuous nondecreasing map otherwise.

    On a board the ray map alpha -> X(alpha u) kinks only at the breakpoints
    cuts[k] / u[k]; between two of them alpha u stays in one cell, where the
    multilinear X is a polynomial of degree <= d in alpha.  One cdf call at
    the breakpoints brackets the crossing, a second at d+1 nodes gives the
    polynomial, and the crossing is its root inside the bracket.
    """
    if not isinstance(X, CheckerboardCopula):
        return _bisect_monotone(lambda t: X.cdf(t * u), p, 0.0, 1.0)
    t = np.unique(
        np.concatenate([[0.0, 1.0]] + [c[(c > 0) & (c < x)] / x for c, x in zip(X.cuts, u)])
    )
    f = X.cdf_many(t[:, None] * u)
    j = int(np.argmax(f >= p))
    if f[j] < p:
        raise RefuterInternalError(f"ray bracket broken: C(u)={f[-1]}, target={p}")
    if j == 0 or f[j] == p:
        return float(t[j])
    lo, hi = t[j - 1], t[j]
    s = np.linspace(0.0, 1.0, X.dim + 1)
    vals = X.cdf_many((lo + s * (hi - lo))[:, None] * u)
    coef = np.linalg.solve(np.vander(s), vals - p)  # highest power first
    # leading coefficients at rounding level would give spurious huge roots
    roots = np.roots(coef[np.argmax(np.abs(coef) > 1e-15 * np.abs(coef).max()):])
    real = roots.real[np.abs(roots.imag) <= 1e-9]
    inside = real[(real >= -1e-9) & (real <= 1.0 + 1e-9)]
    # the secant is a fallback for a bracket too flat to give a root
    x = inside.min() if inside.size else (p - f[j - 1]) / (f[j] - f[j - 1])
    # companion-matrix roots lose digits when the leading coefficient is
    # small; two Newton steps on the polynomial restore them
    dcoef = np.polyder(coef)
    for _ in range(2):
        if np.polyval(dcoef, x) > 0:
            x -= np.polyval(coef, x) / np.polyval(dcoef, x)
    return float(lo + np.clip(x, 0.0, 1.0) * (hi - lo))


def find_corner_pair(
    C: Copula, grid: int | None = None, tol: float = EXACT_TOL
) -> CornerPair | None:
    """Points a <= b in the open cube with Q^C[[0,a]] = p = Q^C[[b,1]].

    Picks the scan point maximising min{C(u), Q^C[[u,1]]} (the largest
    extractable surgery mass, so p is the defect; ties lexicographic).  When
    the upper corner is the smaller one, p := Q^C[[u,1]], b := u and a is
    where the continuous ray map alpha -> C(alpha u) reaches p; otherwise the
    same is done on the survival side and mapped back through u -> 1-u.
    With ``grid=None`` a copula that is a board (``as_board``) is scanned at
    its vertices.  The ray runs on C at u or on its survival copula at 1-u,
    and is solved exactly on a board and bisected otherwise.  Returns None
    iff the defect is already below ``tol`` (grid tau-CM).
    """
    C = _lowered(C, grid)
    return _corner_pair(C, _scan(C, grid), tol)


def _corner_pair(C: Copula, scan: tuple, tol: float) -> CornerPair | None:
    """``find_corner_pair`` on a lowered C from its ``_scan`` result."""
    defect, u, _, cu, su = scan
    if defect <= tol:
        return None
    # the smaller corner mass is p, and the other corner moves along its ray:
    # C's from u, or the survival copula's from 1-u, whose cdf at beta(1-u)
    # is Q^C[[1 - beta(1-u), 1]]
    u = np.asarray(u)
    p = min(cu, su)
    a, b = u, u.copy()
    if cu - p > BISECT_TOL:
        a = _ray(C, u, p) * u
    elif su - p > BISECT_TOL:
        b = 1.0 - _ray(survival(C), 1.0 - u, p) * (1.0 - u)
    # both corner boxes, [0,a] and [b,1], in one call
    pa, pb = C.box_mass_many(np.array([np.zeros(C.dim), b]), np.array([a, np.ones(C.dim)]))
    if abs(pa - p) > EXACT_TOL or abs(pb - p) > EXACT_TOL:
        raise RefuterInternalError(
            f"corner masses {pa:.3e}/{pb:.3e} missed p={p:.3e} after the ray solve"
        )
    return CornerPair(a=a, b=b, p=float(p))


# ---------------------------------------------------------------------------
# The minimality refuter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefutationCertificate:
    """Machine-checkable witness that C is not minimal: a strictly
    concordance-smaller copula D plus the verification results."""

    a: np.ndarray
    b: np.ndarray
    p: float
    # D, the verified witness: a board for a board, else a surgery node
    copula: Copula
    order_check: OrderResult
    margin_defect: float
    rho_drop: float

    @property
    def passed(self) -> bool:
        return (
            self.order_check.relation == Relation.STRICTLY_BELOW
            and self.rho_drop > 0
        )


def _corner_surgery(C: CheckerboardCopula, a, b) -> CheckerboardCopula:
    """The corner surgery on a board, as algebra on its mass tensor.

    On C's cuts refined by a and b, the corner blocks A = [0,a] and B = [b,1]
    are emptied and outer(A_1, B_R)/|B| + outer(B_1, A_R)/|A| is added: X_1
    is a block's first-axis marginal, X_R its remaining-axes marginal and |X|
    its realised mass, which keeps the total mass exact.  A block ends at the
    kept cut nearest its corner, as the merge may drop a corner next to a
    cut.  Returns the surgery result on the refined cuts.
    """
    cuts = [merge_cuts(c, [x, y]) for c, x, y in zip(C.cuts, a, b)]
    masses = _split_cells(C, cuts)
    lo = tuple(slice(0, np.argmin(np.abs(c - x))) for c, x in zip(cuts, a))
    hi = tuple(slice(np.argmin(np.abs(c - x)), None) for c, x in zip(cuts, b))
    A, B = masses[lo].copy(), masses[hi].copy()
    masses[lo] = masses[hi] = 0.0
    rest = tuple(range(1, C.dim))
    glue = lambda X, Y: np.multiply.outer(X.sum(axis=rest), Y.sum(axis=0)) / Y.sum()
    masses[lo[:1] + hi[1:]] += glue(A, B)
    masses[hi[:1] + lo[1:]] += glue(B, A)
    return CheckerboardCopula(cuts, masses)


def refute_minimality(
    C: Copula, grid: int | None = None, tol: float = EXACT_TOL
) -> RefutationCertificate | TauCmCertificate:
    """Either a grid tau-CM certificate, or a verified refutation.

    The refutation's ``copula`` is the D that was verified.  With
    ``grid=None`` a copula that is exactly a board (a checkerboard, Pi, and
    mixtures, glues, reflections and permutations of boards; see
    ``as_board``) is refuted as that board: D is the tensor-surgery board,
    so refuting it again stays on boards.  Other inputs, and every input but
    a checkerboard when a ``grid`` is given, get a ``RefutedCopula`` node.
    A board is never certified: one whose scan finds no pair is refuted on
    its cell midpoints (``_refutable_scan``).  The refuter is one-sided: a
    TauCmCertificate does not prove minimality (tau-CM non-minimal copulas
    exist in dimension >= 4).
    """
    # one scan serves both outcomes: the corner pair, or the certificate
    C, scan = _refutable_scan(C, grid, tol)
    pair = _corner_pair(C, scan, tol)
    if pair is None:
        defect, worst, desc, _, _ = scan
        return TauCmCertificate(desc, defect, worst, tol)
    a, b, p = pair.a, pair.b, pair.p
    if isinstance(C, CheckerboardCopula):
        # the surgery on the refined grid is exact, and so is the order check
        # of two boards (grid=None); C is refined onto D's cut arrays
        # themselves, so that check reads both on those cuts with no merge
        D = _corner_surgery(C, a, b)
        C = CheckerboardCopula(D.cuts, _split_cells(C, D.cuts))
        grid = None
    else:
        D = RefutedCopula(C, a, b, p)
    report = validate(D)
    order_check = concordance_leq(D, C, grid)
    checks: list[str] = []
    if not report.passed:
        checks.append(f"validate failed: {report}")
    if order_check.relation != Relation.STRICTLY_BELOW:
        checks.append(f"order check gave {order_check.relation}")
    gap = C.cdf(a) - D.cdf(a)
    if not gap >= p - EXACT_TOL:
        checks.append(f"strict witness D(a) = C(a) - p failed: gap {gap:.3e} vs p {p:.3e}")
    rho_c = spearman_rho(C).value
    rho_d = spearman_rho(D).value
    rho_drop = rho_c - rho_d
    if not rho_drop > 0:
        checks.append(f"Spearman rho did not drop: {rho_c} -> {rho_d}")
    if checks:
        raise RefuterInternalError("; ".join(checks))
    return RefutationCertificate(
        a=a,
        b=b,
        p=p,
        copula=D,
        order_check=order_check,
        margin_defect=max(report.worst_margin_defect, report.worst_grounding_defect),
        rho_drop=rho_drop,
    )


# ---------------------------------------------------------------------------
# Iterative descent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DescentStep:
    iteration: int
    kendall_integral: float
    rho: float
    defect: float
    p: float
    coarsened: bool
    # float-drift correction applied when re-gridding: always 0.0, since the
    # surgery is exact tensor algebra; kept for the trace CSV's column
    adjustment: float = 0.0


@dataclass(frozen=True)
class DescentResult:
    """The last board, one step per surgery, and why the loop stopped.

    ``status`` "converged" means no refutable vertex on the current grid:
    the vertex tau-CM defect of ``final`` is <= tol.  It does not mean the
    board is minimal.
    """

    final: CheckerboardCopula
    trace: tuple[DescentStep, ...]
    status: str  # "converged" | "stalled" | "max_iter"


def trace_csv(trace) -> str:
    """A descent trace as CSV, one row per step."""
    lines = ["iteration,kendall_integral,rho,defect,p,coarsened,adjustment"]
    for s in trace:
        lines.append(
            f"{s.iteration},{s.kendall_integral:.12g},{s.rho:.12g},"
            f"{s.defect:.12g},{s.p:.12g},{str(s.coarsened).lower()},{s.adjustment:.3g}"
        )
    return "\n".join(lines) + "\n"


def _coarsen(C: CheckerboardCopula, cap: int) -> tuple[CheckerboardCopula, bool]:
    """Drop interior cuts (merging adjacent slabs mass-preservingly, which
    keeps margins exact) until every axis has at most ``cap`` cells."""
    cuts = [c.copy() for c in C.cuts]
    masses = C.masses
    changed = False
    for k in range(C.dim):
        while len(cuts[k]) - 1 > cap:
            widths = np.diff(cuts[k])
            pair = widths[:-1] + widths[1:]
            j = int(np.argmin(pair))  # cheapest interior cut to drop
            idx = [slice(None)] * C.dim
            idx[k] = slice(j, j + 2)
            merged = masses[tuple(idx)].sum(axis=k, keepdims=True)
            before, after = [slice(None)] * C.dim, [slice(None)] * C.dim
            before[k] = slice(0, j)
            after[k] = slice(j + 2, None)
            masses = np.concatenate(
                [masses[tuple(before)], merged, masses[tuple(after)]], axis=k
            )
            cuts[k] = np.delete(cuts[k], j + 1)
            changed = True
    if not changed:
        return C, False
    return CheckerboardCopula(cuts, masses), True


def descend(
    C: Copula,
    n: int = 16,
    max_iter: int = 50,
    tol: float = EXACT_TOL,
    cut_cap: int | None = None,
    stall_patience: int = 25,
) -> DescentResult:
    """Iterated surgery toward a grid tau-CM copula.

    Materialises C on an n-cell grid (a copula that is a board keeps its
    own cuts too, with Pi laid on the n-cell grid), then repeatedly applies
    the corner surgery on the board's mass tensor, inserting the new cut
    planes at a and b (so each step is measure-exact, with no drift to
    correct) and coarsening mass-preservingly when an axis exceeds
    ``cut_cap`` (default 4n) cells.  Stops when the vertex tau-CM defect is
    <= tol ("converged": no refutable vertex on the current grid, which is
    not a proof of minimality), when int C dQ^C has not dropped for
    ``stall_patience`` consecutive surgeries ("stalled"), or at
    ``max_iter``.  The trace shows
    int C dQ^C non-increasing and rho strictly decreasing across exact
    (non-coarsened) steps.
    """
    if n < 4 or max_iter < 1:
        raise InputError("descend needs n >= 4 and max_iter >= 1")
    cap = 4 * n if cut_cap is None else cut_cap
    board = as_board(C, n)
    if board is not None:
        grid = np.linspace(0, 1, n + 1)
        board = discretize(board, [merge_cuts(c, grid) for c in board.cuts])
    else:
        board = discretize(C, uniform_cuts(C.dim, n))
    trace: list[DescentStep] = []
    status = "max_iter"
    best = np.inf
    since_best = 0
    coarsened = False
    for it in range(max_iter):
        # one scan per step gives both the defect and the pair
        scan = _scan(board, None)
        pair = _corner_pair(board, scan, tol)
        defect = scan[0]
        kendall = board.kendall_self_integral()
        rho = spearman_rho(board).value
        if pair is None:
            trace.append(DescentStep(it, kendall, rho, defect, np.nan, coarsened))
            status = "converged"
            break
        # the defect can plateau while the surgery still descends, so
        # progress is measured on the Kendall integral
        if kendall < best - 1e-15:
            best = kendall
            since_best = 0
        else:
            since_best += 1
            if since_best >= stall_patience:
                trace.append(DescentStep(it, kendall, rho, defect, np.nan, coarsened))
                status = "stalled"
                break
        trace.append(DescentStep(it, kendall, rho, defect, pair.p, coarsened))
        board = _corner_surgery(board, pair.a, pair.b)
        board, coarsened = _coarsen(board, cap)
    return DescentResult(final=board, trace=tuple(trace), status=status)

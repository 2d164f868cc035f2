"""Extreme-negative-dependence certificates and the minimality refuter.

A copula is *Kendall-countermonotonic* (tau-CM) when, for every interior u,
at least one of the corner masses Q^C[[0,u]], Q^C[[u,1]] vanishes; this is
equivalent to int C dQ^C = 0, to minimising multivariate Kendall's tau,
and to no two points of its support being strictly ordered on every axis.

``tau_cm_defect``, ``tau_cm_certificate``, ``find_corner_pair``,
``refute_minimality`` and each ``descend`` step decide tau-CM in one place,
``_decided_scan``, whose docstring holds every rule of that decision: with
no grid given it reads that last form off the support
(``_support_slack``) before any scan, and it says when a scan is taken
again.

Every minimal copula (in the concordance order) is tau-CM, so exhibiting an
interior point with both corner masses positive refutes minimality
constructively:

1. ``find_corner_pair`` takes the scan point u of ``_decided_scan`` with
   the largest min{C(u), Q^C[[u,1]]} = p, both corner masses read off the
   orthant-mass tensors (``transforms.orthant_masses``), and moves the
   larger corner along the ray map alpha -> C(alpha u) (or the survival
   copula's, from 1-u) until both corner boxes carry exactly p.  A copula
   that is exactly a board (``transforms.as_board``) halves its ray on a
   fitted cell polynomial; other representations bisect.
2. ``refute_minimality`` performs the corner surgery: the two comonotone
   corner pieces are replaced by a cross-glued, de-comonotonised pair,
   producing D with D <= C, tau(D) <= tau(C) and D(a) = C(a) - p.  On a
   board D is the board read off the mass tensor refined by the cut
   planes at a and b, which makes every check exact.  C's masses split
   onto D's own cut arrays are the one tensor the surgery cuts into, and
   every check but D's validity reads one tensor, the mass difference
   C - D on those cuts: the corner masses are the two blocks the surgery
   empties, checked against p there; the witness gap C(a) - D(a) is its
   sum over [0, a]; the order check takes its cumulative sums from both
   corners (``order._board_differences``), with no merge; and the
   Spearman-rho drop is its inner product with the cells' midpoint
   weights, since rho is linear in a board's masses.  D is the one board
   built: its constructor's checks on the same cuts cover the split's, as
   the surgery keeps its total and margins.  On any other copula D is a
   ``RefutedCopula`` node, whose corner boxes are checked by one
   ``box_mass_many`` call.  The D that is returned is the D that was
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

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    EXACT_TOL,
    CheckerboardCopula,
    ClaytonExtreme,
    Copula,
    GlueProduct,
    LowerFrechet2d,
    MixtureCopula,
    Permuted,
    ProductCopula,
    Reflected,
    RefutedCopula,
    SegmentCopula,
    _along,
    _check_tolerance,
    _first_max,
    _insert_cuts,
    default_resolution,
    grid_axes,
    merge_cuts,
    validate,
)
from .concordance import spearman_normalization, spearman_rho
from .errors import InputError, RefuterInternalError, UnsupportedRepresentationError
from .order import OrderResult, Relation, _board_differences, _concordance, concordance_leq
from .transforms import (
    _split_cells,
    as_board,
    discretize,
    orthant_masses,
    reflect,
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

# the grid description of a verdict read off the support, with no scan
SUPPORT_TEST = "support: no two points strictly ordered on every axis"
# pair-candidate-axis elements per block of the segment-pair test
_PAIR_BLOCK = 1 << 16

# a scan's (defect, worst point u, grid description, C(u), Q^C[[u,1]])
_Scan = tuple[float, tuple, str, float, float]


# ---------------------------------------------------------------------------
# tau-CM defect
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TauCmCertificate:
    """tau-CM certificate: the worst value of min{C(u), Q^C[[u,1]]} found,
    where it occurred, and the tolerance the verdict was reached with.

    ``exact`` is True when the support proves tau-CM (``grid`` is then
    ``SUPPORT_TEST`` and the defect 0); otherwise the defect is the worst
    over the interior vertices of the grid that ``grid`` describes, and a
    pass is grid-level."""

    grid: str
    defect: float
    worst_point: tuple
    tol: float = EXACT_TOL
    exact: bool = False

    @property
    def passed(self) -> bool:
        return self.defect <= self.tol


@functools.lru_cache(maxsize=None)
def _crossing_axes(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The axis pairs (k, l), as a (2, n) index array, and the axis triples
    (k, l, m), as (3, n), whose crossings are candidate maxima of the
    segment-pair slack in d dimensions."""
    pairs, triples = (
        np.array(list(itertools.combinations(range(d), r)), dtype=int).reshape(-1, r).T
        for r in (2, 3)
    )
    # every caller shares the cached arrays
    pairs.setflags(write=False)
    triples.setflags(write=False)
    return pairs, triples


def _pair_vertices(a, b, c, pairs, triples) -> tuple[np.ndarray, np.ndarray]:
    """(t, s), each (P, candidates), clipped to the unit square: the
    vertices at which the concave piecewise-linear slack
    min_k f_k(t, s), f_k = c_k + b_k s - a_k t, of each of P segment pairs
    may attain its maximum over the square.  These are its 4 corners, the
    crossings f_k = f_l on its 4 edges, and the crossings
    f_k = f_l = f_m inside it.  A crossing of parallel pieces, which does
    not exist, is taken at 0 instead, and every candidate is clipped into
    the square: each is a point of the square, so no candidate exceeds the
    maximum, which the true vertices attain."""

    def diff(X, k, l):
        return X[:, k] - X[:, l]

    def quotient(num, den):
        return num / np.where(den == 0, np.inf, den)

    k, l = pairs
    # f_k - f_l = dc + db s - da t
    dc, da, db = (diff(X, k, l) for X in (c, a, b))
    zero = np.zeros_like(dc)
    one = np.ones_like(dc)
    k, l, m = triples
    c1, a1, b1 = (diff(X, k, l) for X in (c, a, b))
    c2, a2, b2 = (diff(X, k, m) for X in (c, a, b))
    det = a1 * b2 - b1 * a2
    corners_t = np.broadcast_to([0.0, 0.0, 1.0, 1.0], (len(a), 4))
    corners_s = np.broadcast_to([0.0, 1.0, 0.0, 1.0], (len(a), 4))
    t = np.concatenate(
        [corners_t, zero, one, quotient(dc, da), quotient(dc + db, da),
         quotient(b2 * c1 - b1 * c2, det)],
        axis=1,
    )
    s = np.concatenate(
        [corners_s, quotient(-dc, db), quotient(da - dc, db), zero, one,
         quotient(c1 * a2 - a1 * c2, det)],
        axis=1,
    )
    return np.clip(t, 0.0, 1.0, out=t), np.clip(s, 0.0, 1.0, out=s)


def _segment_slack(C: SegmentCopula) -> tuple[float, np.ndarray, np.ndarray]:
    """The maximum over ordered pairs (i, j) of segments, i = j included,
    and over t, s in [0, 1] of min_k (y_jk(s) - x_ik(t)), with the points
    x, y that attain it.

    For each pair the slack is the minimum of d affine functions of (t, s),
    so its maximum over the square lies at one of ``_pair_vertices``; one
    numpy pass evaluates every candidate of a block of pairs.  The maximum
    is >= 0 (x = y on one segment) and > 0 iff two points of the support
    are strictly ordered on every axis.
    """
    n, d = len(C.masses), C.dim
    pairs, triples = _crossing_axes(d)
    per_pair = (4 + 4 * pairs.shape[1] + triples.shape[1]) * d
    step = max(1, _PAIR_BLOCK // per_pair)
    best, witness = -np.inf, None
    for lo in range(0, n * n, step):
        i, j = np.divmod(np.arange(lo, min(lo + step, n * n)), n)
        a, b = C.dirs[i], C.dirs[j]
        c = C.starts[j] - C.starts[i]
        t, s = _pair_vertices(a, b, c, pairs, triples)
        slack = np.min(c[:, None] + s[..., None] * b[:, None] - t[..., None] * a[:, None], axis=2)
        q = _first_max(slack)
        if slack.flat[q] > best:
            p, r = np.unravel_index(q, slack.shape)
            best = float(slack[p, r])
            witness = (C.starts[i[p]] + t[p, r] * a[p], C.starts[j[p]] + s[p, r] * b[p])
    return best, *witness


def _support_slack(C: Copula) -> tuple[float, np.ndarray | None, np.ndarray | None] | None:
    """(slack, x, y) read off C's support, or None where it is not read.

    A slack > 0 says that the points x < y of the support (the closure of
    the set carrying mass) are strictly ordered on every axis, by at least
    the slack; a slack of 0 that no two points are.  Segment copulas take
    the maximum of ``_segment_slack``, and so does a reflection of one,
    taken as the segment copula ``reflect`` makes of it.  A permutation
    keeps the inner copula's slack, its pair mapped through sigma.  By
    rule, ``ClaytonExtreme`` and ``LowerFrechet2d`` have no pair: their mass
    lies on a level set of a strictly increasing sum (sum_k g(u_k) = d-1,
    u_1 + u_2 = 1).  A glue product's support is the product of its halves',
    so it has a pair iff both halves have one, with slack the smaller of
    theirs: one-dimensional copulas and Pi (x = 0, y = 1) and boards (the
    corners of their heaviest cell) always have one.  Everything else
    gives None.
    """
    if isinstance(C, SegmentCopula):
        return _segment_slack(C)
    if isinstance(C, Reflected) and isinstance(C.inner, SegmentCopula):
        return _segment_slack(reflect(C.inner, C.K))
    if isinstance(C, Permuted):
        inner = _support_slack(C.inner)
        if inner is None or inner[1] is None:
            return inner
        slack, x, y = inner
        pair = np.empty((2, C.dim))
        pair[:, list(C.sigma)] = x, y
        return slack, pair[0], pair[1]
    if isinstance(C, (ClaytonExtreme, LowerFrechet2d)):
        return 0.0, None, None
    if C.dim == 1 or isinstance(C, ProductCopula):
        return 1.0, np.zeros(C.dim), np.ones(C.dim)
    if isinstance(C, CheckerboardCopula):
        cell = np.unravel_index(np.argmax(C.masses), C.masses.shape)
        x = np.array([c[i] for c, i in zip(C.cuts, cell)])
        y = np.array([c[i + 1] for c, i in zip(C.cuts, cell)])
        return float(np.min(y - x)), x, y
    if isinstance(C, GlueProduct):
        halves = [_support_slack(X) for X in (C.left, C.right)]
        if any(h is not None and h[0] <= 0 for h in halves):
            return 0.0, None, None
        if any(h is None for h in halves):
            return None
        (sl, xl, yl), (sr, xr, yr) = halves
        return min(sl, sr), np.concatenate([xl, xr]), np.concatenate([yl, yr])
    return None


def _scan(C: Copula, grid: int | None, extra: np.ndarray | None = None) -> _Scan:
    """The worst of C's interior vertices, with a point ``extra`` joined to
    the axes: a board with no grid is read at its own vertices, anything
    else on the uniform grid plus its breakpoints.  No interior vertex
    reads defect 0 at no point.  ``_decided_scan`` says which scans run."""
    if grid is None and isinstance(C, CheckerboardCopula):
        cuts, kind = C.cuts, "checkerboard vertices"
    else:
        res = grid if grid is not None else default_resolution(C.dim)
        cuts, kind = grid_axes([C], res), f"uniform {res}+breakpoints"
    if extra is not None:
        cuts = [_insert_cuts(c, [x]) for c, x in zip(cuts, extra)]
        kind += "+support pair"
    desc = f"{kind}, sizes {[len(c) for c in cuts]}"
    if any(len(c) < 3 for c in cuts):
        return 0.0, (), desc, 0.0, 0.0
    interior = (slice(1, -1),) * C.dim
    lower, upper = (X[interior] for X in orthant_masses(C, cuts))
    defect = np.minimum(lower, upper)
    idx = np.unravel_index(_first_max(defect), defect.shape)
    worst = tuple(float(c[i + 1]) for c, i in zip(cuts, idx))
    return float(defect[idx]), worst, desc, float(lower[idx]), float(upper[idx])


def _decided_scan(
    C: Copula, grid: int | None, tol: float, refute: bool = False
) -> tuple[Copula, _Scan]:
    """The one tau-CM decision: (C, its scan), C lowered where no grid is
    given.  ``tau_cm_defect``, ``find_corner_pair`` and each ``descend``
    step decide through it, and so, with ``refute``, do
    ``tau_cm_certificate`` and ``refute_minimality``.

    1. With no grid, C is lowered to the board that equals it
       (``as_board``: a checkerboard, Pi, and mixtures, glues, reflections
       and permutations of boards), so that the exact board paths apply.
    2. With no grid, a C that is not a board has its support read
       (``_support_slack``).  A slack <= 0 (no two support points strictly
       ordered on every axis) proves tau-CM with no scan: defect 0 at no
       point, described as ``SUPPORT_TEST``.  Rounding cannot flip that
       verdict at ``tol``: uniform margins give each segment's mass
       m_i <= min_k |v_ik| (its direction v_i), so a slack delta hides at
       most 2 S delta of defect on S segments.
    3. Otherwise ``_scan`` reads C: a board with no grid at its own
       vertices, anything else on the uniform grid plus its breakpoints.
    4. A scan that passes at ``tol`` runs once more, with the support pair's
       midpoint u = (x + y)/2 on every axis, where both corner boxes carry
       mass: for a non-board whose support has a pair (it lies between the
       grid lines); for a board whose scan found no interior vertex (a
       single cell on some axis); and with ``refute`` for any board, since
       no board is tau-CM.  A board's pair is its heaviest cell's corners:
       at that cell's midpoint, for a cell of mass m, both corner boxes
       hold at least m/2^d.

    ``tol`` must be a finite number >= 0, else ``InputError``.
    """
    _check_tolerance(tol, "tol")
    support = None
    if grid is None:
        C = as_board(C) or C
        if not isinstance(C, CheckerboardCopula):
            support = _support_slack(C)
            if support is not None and support[0] <= 0:
                return C, (0.0, (), SUPPORT_TEST, 0.0, 0.0)
    scan = _scan(C, grid)
    board = isinstance(C, CheckerboardCopula)
    if scan[0] <= tol and (support is not None or (board and (refute or not scan[1]))):
        _, x, y = support or _support_slack(C)
        scan = _scan(C, grid, 0.5 * (x + y))
    return C, scan


def tau_cm_defect(
    C: Copula, grid: int | None = None
) -> tuple[float, tuple, str]:
    """max over interior scan points of min{C(u), (tau C)(1-u)}.

    Returns (defect, worst_point, grid description), decided by
    ``_decided_scan`` at 1e-9: (0.0, (), ``SUPPORT_TEST``) is an exact
    verdict, any other defect <= 1e-9 a grid-level tau-CM certificate, and a
    larger defect exhibits a point whose two corner boxes both carry mass.
    Ties break lexicographically.
    """
    defect, worst, desc, _, _ = _decided_scan(C, grid, EXACT_TOL)[1]
    return defect, worst, desc


def _certificate(scan: _Scan, tol: float) -> TauCmCertificate:
    defect, worst, desc, _, _ = scan
    return TauCmCertificate(desc, defect, worst, tol, exact=desc == SUPPORT_TEST)


def tau_cm_certificate(
    C: Copula, grid: int | None = None, tol: float = EXACT_TOL
) -> TauCmCertificate:
    """The tau-CM verdict ``refute_minimality`` reaches without surgery,
    decided by ``_decided_scan`` with ``refute`` at ``tol``: exact when the
    support proves tau-CM, grid-level otherwise, and never passed by a
    board."""
    return _certificate(_decided_scan(C, grid, tol, refute=True)[1], tol)


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
    level*, never a theorem about all g families.  ``eps`` must be a
    finite number >= 0, else ``InputError``.
    """
    _check_tolerance(eps, "eps")
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
    """The smallest alpha in [0,1] with X(alpha u) = p: halved on the cell
    polynomial on a board, bisected on the nondecreasing map otherwise.

    On a board the ray map alpha -> X(alpha u) kinks only at the breakpoints
    cuts[k] / u[k]; between two of them alpha u stays in one cell, where the
    multilinear X is a polynomial of degree <= d in alpha.  One cdf call at
    the breakpoints brackets the crossing, a second at d+1 nodes fits the
    polynomial, and the bracket is halved on it down to adjacent doubles,
    with no sign check at its ends that rounding could trip.
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
    # highest power first, as Python floats for the Horner steps
    coef = np.linalg.solve(np.vander(s), vals - p).tolist()
    below, above = 0.0, 1.0
    while below < (mid := 0.5 * (below + above)) < above:
        if functools.reduce(lambda v, c: v * mid + c, coef, 0.0) < 0:
            below = mid
        else:
            above = mid
    return float(lo + above * (hi - lo))


def find_corner_pair(
    C: Copula, grid: int | None = None, tol: float = EXACT_TOL
) -> CornerPair | None:
    """Points a <= b in the open cube with Q^C[[0,a]] = p = Q^C[[b,1]].

    Picks the scan point maximising min{C(u), Q^C[[u,1]]} (the largest
    extractable surgery mass, so p is the defect; ties lexicographic).  When
    the upper corner is the smaller one, p := Q^C[[u,1]], b := u and a is
    where the continuous ray map alpha -> C(alpha u) reaches p; otherwise the
    same is done on the survival side and mapped back through u -> 1-u.
    The scan point is ``_decided_scan``'s at ``tol``.  The ray runs on C at
    u or on its survival copula at 1-u (``_ray``), and both corner boxes
    are then checked to carry p (``_check_corner_boxes``).  Returns None iff
    the defect is already below ``tol`` (tau-CM, exactly or on the grid).
    """
    C, scan = _decided_scan(C, grid, tol)
    pair = _corner_pair(C, scan, tol)
    if pair is not None:
        _check_corner_boxes(C, pair)
    return pair


def _corner_pair(C: Copula, scan: tuple, tol: float) -> CornerPair | None:
    """``find_corner_pair`` on the C and scan ``_decided_scan`` returns, with
    the corner masses unchecked: on a board the surgery checks them
    (``_refined_surgery``), elsewhere ``_check_corner_boxes`` does."""
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
    return CornerPair(a=a, b=b, p=float(p))


def _check_corner_masses(pa: float, pb: float, p: float) -> None:
    """Raise unless both corner masses are p within EXACT_TOL."""
    if abs(pa - p) > EXACT_TOL or abs(pb - p) > EXACT_TOL:
        raise RefuterInternalError(
            f"corner masses {pa:.3e}/{pb:.3e} missed p={p:.3e} after the ray solve"
        )


def _check_corner_boxes(C: Copula, pair: CornerPair) -> None:
    """Check that both corner boxes, [0,a] and [b,1], carry p: one
    ``box_mass_many`` call."""
    pa, pb = C.box_mass_many(
        np.array([np.zeros(C.dim), pair.b]), np.array([pair.a, np.ones(C.dim)])
    )
    _check_corner_masses(pa, pb, pair.p)


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


def _nearest(cuts, x) -> tuple[int, ...]:
    """The index of the cut nearest x_k on each axis."""
    return tuple(int(np.argmin(np.abs(c - v))) for c, v in zip(cuts, x))


def _refined_surgery(
    C: CheckerboardCopula, a, b, p: float
) -> tuple[np.ndarray, CheckerboardCopula]:
    """The corner surgery on a board, as algebra on its mass tensor.

    On C's cuts refined by a and b, the corner blocks A = [0,a] and B = [b,1]
    are emptied and outer(A_1, B_R)/|B| + outer(B_1, A_R)/|A| is added: X_1
    is a block's first-axis marginal, X_R its remaining-axes marginal and |X|
    its realised mass, which keeps the total mass exact.  a and b are
    inserted into each axis's cut array (``_insert_cuts``), which keeps every
    cut of C and drops a corner within CUT_GAP of a cut, so a block ends at
    the kept cut nearest its corner; an axis that gains no cut keeps C's
    array itself, and its cells are not split.  Both blocks' masses are
    checked against p at EXACT_TOL (``RefuterInternalError`` otherwise), so
    the surgery is the corner check of a board's refutation and of each
    descent step.  Snapping a corner to a cut within CUT_GAP moves a block's
    mass by at most d * CUT_GAP, since margins are uniform.  Returns C's
    masses on the refined cuts and the surgery result D on them.
    """
    cuts = [_insert_cuts(c, (x, y)) for c, x, y in zip(C.cuts, a, b)]
    refined = _split_cells(C, cuts)
    masses = refined.copy()
    lo = tuple(slice(0, i) for i in _nearest(cuts, a))
    hi = tuple(slice(i, None) for i in _nearest(cuts, b))
    A, B = masses[lo].copy(), masses[hi].copy()
    pa, pb = A.sum(), B.sum()
    _check_corner_masses(pa, pb, p)
    masses[lo] = masses[hi] = 0.0
    rest = tuple(range(1, C.dim))
    glue = lambda X, Y, y: np.multiply.outer(X.sum(axis=rest), Y.sum(axis=0)) / y
    masses[lo[:1] + hi[1:]] += glue(A, B, pb)
    masses[hi[:1] + lo[1:]] += glue(B, A, pa)
    return refined, CheckerboardCopula(cuts, masses)


def _witness_gap(delta: np.ndarray, cuts, a: np.ndarray) -> float:
    """C(a) - D(a) for two boards on the same ``cuts`` with mass difference
    ``delta`` = C - D: delta summed over the cells below the cut nearest
    each a_k, where ``_refined_surgery`` ends the emptied block [0, a]."""
    return float(delta[tuple(slice(0, i) for i in _nearest(cuts, a))].sum())


def _rho_drop(delta: np.ndarray, cuts) -> float:
    """rho(C) - rho(D) for two boards on the same ``cuts`` with mass
    difference ``delta`` = C - D.  Spearman's rho of a board is linear in
    its masses: norm/2 * (E[prod V_k] + E[prod (1 - V_k)]) - norm 2^-d,
    each cell contributing its mass times the factors at its midpoint, so
    the drop is norm/2 * <delta, prod mid_k + prod (1 - mid_k)>."""
    mids = [0.5 * (c[:-1] + c[1:]) for c in cuts]
    weights = functools.reduce(np.multiply.outer, mids) + functools.reduce(
        np.multiply.outer, [1.0 - m for m in mids]
    )
    return 0.5 * spearman_normalization(len(cuts)) * float((delta * weights).sum())


def refute_minimality(
    C: Copula, grid: int | None = None, tol: float = EXACT_TOL
) -> RefutationCertificate | TauCmCertificate:
    """Either a tau-CM certificate, or a verified refutation.

    The certificate is ``tau_cm_certificate``'s, and one scan serves both
    outcomes: ``_decided_scan`` with ``refute`` at ``tol``, so a board is
    never certified.  The refutation's ``copula`` is the D that was
    verified.  With ``grid=None`` a copula that is exactly a board (see
    ``as_board``) is refuted as that board: D is the tensor-surgery board,
    so refuting it again stays on boards, and the corner masses, the
    witness gap, the order check and the rho drop are read off the mass
    difference of C split onto D's cuts and D (``_refined_surgery``,
    ``_witness_gap``, ``_rho_drop``, ``order._board_differences``).  Other
    inputs, and every input but a checkerboard when a ``grid`` is given,
    get a ``RefutedCopula`` node, checked through box masses, cdfs and
    ``spearman_rho``.  The refuter is one-sided: a TauCmCertificate does
    not prove minimality (tau-CM non-minimal copulas exist in dimension
    >= 4).
    """
    C, scan = _decided_scan(C, grid, tol, refute=True)
    pair = _corner_pair(C, scan, tol)
    if pair is None:
        return _certificate(scan, tol)
    a, b, p = pair.a, pair.b, pair.p
    if isinstance(C, CheckerboardCopula):
        # the surgery on the refined grid is exact, and so is the order check
        # of two boards: C's masses split onto D's cuts minus D's masses is
        # the one tensor the order check, the gap and the rho drop read
        refined, D = _refined_surgery(C, a, b, p)
        delta = refined - D.masses
        gap = _witness_gap(delta, D.cuts, a)
        rho_drop = _rho_drop(delta, D.cuts)
        order_check = _concordance(_board_differences(-delta, D.cuts), EXACT_TOL)
    else:
        _check_corner_boxes(C, pair)
        D = RefutedCopula(C, a, b, p)
        gap = C.cdf(a) - D.cdf(a)
        rho_drop = spearman_rho(C).value - spearman_rho(D).value
        order_check = concordance_leq(D, C, grid)
    report = validate(D)
    checks: list[str] = []
    if not report.passed:
        checks.append(f"validate failed: {report}")
    if order_check.relation != Relation.STRICTLY_BELOW:
        checks.append(f"order check gave {order_check.relation}")
    if not gap >= p - EXACT_TOL:
        checks.append(f"strict witness D(a) = C(a) - p failed: gap {gap:.3e} vs p {p:.3e}")
    if not rho_drop > 0:
        checks.append(f"Spearman rho did not drop: rho(C) - rho(D) = {rho_drop}")
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

    @property
    def adjustment(self) -> float:
        """0.0: the surgery is exact tensor algebra, so no step corrects
        drift.  No field and no trace column; read by the benchmark's tracer
        (``negdep.descend.adjustment_max``)."""
        return 0.0


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
    lines = ["iteration,kendall_integral,rho,defect,p,coarsened"]
    for s in trace:
        lines.append(
            f"{s.iteration},{s.kendall_integral:.12g},{s.rho:.12g},"
            f"{s.defect:.12g},{s.p:.12g},{str(s.coarsened).lower()}"
        )
    return "\n".join(lines) + "\n"


def _coarsen(C: CheckerboardCopula, cap: int) -> tuple[CheckerboardCopula, bool]:
    """Drop interior cuts until every axis has at most ``cap`` cells.  Each
    axis's kept cuts are read off the widths alone, dropping one at a time
    the cut between the narrowest pair of adjacent cells; the slabs between
    kept cuts are then merged at once by ``np.add.reduceat`` (the inverse
    of ``_split_cells``), which sums each slab's cells left to right and
    keeps total mass and margins exact."""
    masses = C.masses
    cuts = []
    for k, c in enumerate(C.cuts):
        kept = np.arange(len(c))
        while len(kept) - 1 > cap:
            widths = np.diff(c[kept])
            kept = np.delete(kept, int(np.argmin(widths[:-1] + widths[1:])) + 1)
        if len(kept) < len(c):
            masses = np.add.reduceat(masses, kept[:-1], axis=k)
        cuts.append(c[kept])
    if masses is C.masses:
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
    (non-coarsened) steps.  ``n``, ``max_iter`` and ``cut_cap`` are integers
    (n >= 4, the others >= 1) and ``tol`` a finite number >= 0, else
    ``InputError``.
    """
    cap = 4 * n if cut_cap is None else cut_cap
    for name, value, least in (("n", n, 4), ("max_iter", max_iter, 1), ("cut_cap", cap, 1)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise InputError(f"descend needs an integer {name} >= {least}, got {value!r}")
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
        board, scan = _decided_scan(board, None, tol)
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
        board = _refined_surgery(board, pair.a, pair.b, pair.p)[1]
        board, coarsened = _coarsen(board, cap)
    return DescentResult(final=board, trace=tuple(trace), status=status)

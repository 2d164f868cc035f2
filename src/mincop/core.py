"""Copula representations and copula-measure queries.

A *copula* is a distribution function C on the unit cube I^d with uniform
margins; its measure Q^C satisfies Q^C[[0,u]] = C(u).  Three representations
cover everything this package needs:

``CheckerboardCopula``
    A nonnegative mass tensor over a grid of axis-aligned cells, mass spread
    uniformly within each cell.  The distribution function is the multilinear
    interpolation of its values at cell vertices, which makes cell-wise
    integrals exact (the mean of a multilinear function over a cell is the
    mean of its corner values).

``SegmentCopula``
    Finitely many line segments in I^d, each carrying mass uniform in its
    parameter.  This represents the singular extreme-negative-dependence
    examples exactly: box masses, hyperplane masses and polynomial moments
    reduce to one-dimensional interval computations.

Analytic nodes (``UpperFrechet``, ``LowerFrechet2d``, ``ProductCopula``,
``ClaytonExtreme``, ``Reflected``, ``Permuted``, ``GlueProduct``,
``MixtureCopula``, ``RefutedCopula``)
    Immutable closed-form expression trees.

Each query has a batch form (``cdf_many``, ``box_mass_many`` on (N, d)
arrays) and a lattice form (``cdf_grid``, ``box_mass_grid`` on a product
grid).  All four run one block loop, ``Copula._lattice_box_mass(lo, hi)``,
over one per-axis kernel, ``_box_mass_lattice(lo, hi)``: each box face is
an array that broadcasts to the lattice (a batch is the lattice whose axes
all lie along axis 0) or a float constant over it, 0.0 as a lower face and
1.0 as an upper one.  The loop hands the kernel blocks of at most
_BOX_ROWS points, so a kernel's temporaries scale with a block, never with
the lattice.  The cdf is the box from the origin.  A class defines one of
two primitives:

* ``cdf_many``, for a closed-form pointwise cdf (checkerboards, M, W,
  permutations).  The default ``_box_mass_lattice`` writes the faces out
  as (N, d) points and runs inclusion-exclusion over the 2^d corners
  (corners on an all-zero lo face drop out, since copulas are grounded),
  so a box costs O(2^d) cdf values; a dimension cap (default 6) keeps
  that honest.  It stacks every corner of its rows into ``cdf_many``
  calls and adds the signed values in corner order, so a board locates
  its points in the cuts once per call, not once per corner.
* ``_box_mass_lattice``, for a separable or structural measure: the
  kernels of segment copulas and the extreme Clayton, whose cdfs separate
  by axis and take a float face once; Pi's product of side lengths; a
  glue product's product of its halves' lattices; a mixture's weighted
  sum of its parts'; a reflection's (or a survival copula's) one box of
  its inner copula, with the faces that are constant left as floats; and
  a surgery node's seven boxes of its inner copula, combined by the
  surgery's arithmetic.

All values are immutable after construction and safe to share.  Evaluation
is vectorised with numpy and deterministic; sampling is deterministic given
the seed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    InputError,
    UnsupportedRepresentationError,
    ValidationError,
)

__all__ = [
    "Copula",
    "CheckerboardCopula",
    "SegmentCopula",
    "UpperFrechet",
    "LowerFrechet2d",
    "ProductCopula",
    "ClaytonExtreme",
    "Reflected",
    "Permuted",
    "GlueProduct",
    "MixtureCopula",
    "RefutedCopula",
    "MeasureEstimate",
    "ValidationReport",
    "cdf",
    "box_mass",
    "survival_value",
    "sample",
    "validate",
    "get_dimension_cap",
    "set_dimension_cap",
]

# Points per block of a lattice query (Copula._lattice_box_mass) and rows per
# stacked cdf_many call of the generic inclusion-exclusion: bounds temporaries.
_BOX_ROWS = 1 << 15

# Exact paths report and test against this tolerance; it is never silently
# absorbed into results.
EXACT_TOL = 1e-9
CONSTRUCTION_TOL = 1e-12
# values this close to a maximum tie with it (see _first_max)
TIE_TOL = 1e-15
# cut points closer than this are one cut (see merge_cuts)
CUT_GAP = 1e-13
# grid_axes thins an axis with more nodes than this
MAX_AXIS_NODES = 512

_DIMENSION_CAP = 6


def get_dimension_cap() -> int:
    return _DIMENSION_CAP


def set_dimension_cap(d: int) -> None:
    """Raise the ambient-dimension cap (default 6).

    Inclusion-exclusion queries cost O(2^d) per point; the cap exists so that
    nobody hits that wall by accident.
    """
    global _DIMENSION_CAP
    if not isinstance(d, int) or d < 2:
        raise InputError(f"dimension cap must be an integer >= 2, got {d!r}")
    _DIMENSION_CAP = d


def _check_dim(d: int) -> int:
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise InputError(f"dimension must be a positive integer, got {d!r}")
    if d > _DIMENSION_CAP:
        raise InputError(
            f"dimension {d} exceeds the cap {_DIMENSION_CAP}; "
            "call set_dimension_cap() to override"
        )
    return int(d)


def as_points(u, dim: int) -> np.ndarray:
    """Normalise a point or an (n, d) batch of points in I^d to a 2-D array."""
    arr = np.asarray(u, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatchError(
            f"expected points of dimension {dim}, got array of shape {np.shape(u)}"
        )
    if not np.isfinite(arr).all():
        raise InputError("point coordinates must be finite")
    if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
        raise InputError("point coordinates must lie in [0, 1]")
    return np.clip(arr, 0.0, 1.0)


def _first_max(values: np.ndarray) -> int:
    """Index of the first value (C-order) within TIE_TOL of the maximum.

    Two evaluation paths can round an exact tie a few ulps apart; counting
    such values as tied keeps the lexicographic tie-break the same on both.
    """
    flat = values.ravel()
    return int(np.argmax(flat >= flat.max() - TIE_TOL))


def _corner_masks(d: int) -> list[tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=d))


def _cumulative(masses: np.ndarray) -> np.ndarray:
    """S[i] = the mass of the cells below vertex i, for every vertex of a
    mass tensor's grid: Q[[0, vertex_i]]."""
    S = np.zeros([n + 1 for n in masses.shape])
    S[(slice(1, None),) * masses.ndim] = masses
    for ax in range(masses.ndim):
        S = np.cumsum(S, axis=ax)
    return S


# Per-axis factor codes for product moments: E[ 1_box(V) * prod_k f_k(V_k) ].
MOMENT_ONE = 0  # f(v) = 1
MOMENT_V = 1  # f(v) = v
MOMENT_1MV = 2  # f(v) = 1 - v

_MOMENT_FLIP = {MOMENT_ONE: MOMENT_ONE, MOMENT_V: MOMENT_1MV, MOMENT_1MV: MOMENT_V}


def _moment_eval(code: int, x: np.ndarray) -> np.ndarray:
    if code == MOMENT_ONE:
        return np.ones_like(x)
    if code == MOMENT_V:
        return x
    return 1.0 - x


@functools.lru_cache(maxsize=None)
def _gauss_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [-1, 1], computed once per m and
    shared read-only."""
    x, w = np.polynomial.legendre.leggauss(m)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_nodes(m: int, lo, hi):
    """Gauss-Legendre nodes/weights mapped to [lo, hi] (lo, hi may be arrays)."""
    x, w = _gauss_rule(m)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    nodes = lo[..., None] + (x + 1.0) * half[..., None]
    weights = w * half[..., None]
    return nodes, weights


@dataclass(frozen=True)
class MeasureEstimate:
    """A functional value with enough metadata to trust it.

    ``method`` is ``"exact"``, ``"quadrature"`` or ``"monte_carlo"``;
    exact results carry error_bound 0, Monte Carlo results carry a 3-sigma
    half-width from the sample variance.
    """

    value: float
    method: str
    error_bound: float
    samples_or_nodes: int = 0

    def __post_init__(self):
        if self.method == "exact" and self.error_bound != 0.0:
            raise InputError("exact estimates must report error_bound 0")
        if self.error_bound < 0:
            raise InputError("error_bound must be nonnegative")


@dataclass(frozen=True)
class ValidationReport:
    """Grid-level validity check of a would-be copula.

    ``worst_negative_mass`` is the most negative elementary-cell mass seen
    (0.0 when none is negative); the margin and grounding defects are worst
    absolute deviations from u_k and from 0 respectively.
    """

    worst_negative_mass: float
    worst_margin_defect: float
    worst_grounding_defect: float
    grid: str
    tol: float = EXACT_TOL

    @property
    def passed(self) -> bool:
        return (
            self.worst_negative_mass <= self.tol
            and self.worst_margin_defect <= self.tol
            and self.worst_grounding_defect <= self.tol
        )


class Copula:
    """Common interface for all representations.

    Subclasses provide ``dim`` and exactly one evaluation primitive:
    ``cdf_many`` (a closed-form pointwise cdf; box masses then come from
    the default ``_box_mass_lattice``, inclusion-exclusion over it) or
    ``_box_mass_lattice`` (a separable or structural box mass; the cdf is
    then the box from the origin).  Every other query runs it block by
    block (``_lattice_box_mass``).  A class that defines neither recurses
    without end: each default calls the other.
    """

    dim: int

    # -- evaluation ------------------------------------------------------

    def cdf_many(self, U: np.ndarray) -> np.ndarray:
        """C at each row of an (N, d) batch: the box from the origin."""
        return self._lattice_box_mass([0.0] * self.dim, U.T)

    def cdf(self, u) -> float:
        return float(self.cdf_many(as_points(u, self.dim))[0])

    def box_mass_many(self, Lo: np.ndarray, Hi: np.ndarray) -> np.ndarray:
        """Q^C[[lo, hi]] for each row of two (N, d) batches of box faces."""
        return self._lattice_box_mass(Lo.T, Hi.T)

    def cdf_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """C at every vertex of the product grid of ``axes`` (one node array
        per axis), as the C-order tensor of shape ``[len(a) for a in axes]``:
        ``_lattice_box_mass`` from the origin on the grid's lattice.
        """
        flat = self._lattice_box_mass([0.0] * self.dim, _lattice(axes))
        return flat.reshape([len(a) for a in axes])

    def box_mass_grid(
        self, lo_axes: Sequence[np.ndarray], hi_axes: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Q^C[[lo, hi]] for every box of the product grid, as the C-order
        tensor of shape ``[len(a) for a in hi_axes]``: the box at index i has
        lo_k = lo_axes[k][i_k] and hi_k = hi_axes[k][i_k], so each axis
        holds as many lo nodes as hi nodes: ``_lattice_box_mass`` on the
        two grids' lattices.
        """
        flat = self._lattice_box_mass(_lattice(lo_axes), _lattice(hi_axes))
        return flat.reshape([len(a) for a in hi_axes])

    def _lattice_box_mass(self, lo, hi) -> np.ndarray:
        """Q^C[[lo, hi]] on a lattice of any size, flat in C order: one
        ``_box_mass_lattice`` call if it holds at most _BOX_ROWS points, else
        one per block of ``_lattice_blocks``, on faces cut to it (``_on_block``)."""
        shape = np.broadcast(*lo, *hi).shape
        if math.prod(shape) <= _BOX_ROWS:
            return self._box_mass_lattice(lo, hi)
        out = np.empty(shape)
        for block in _lattice_blocks(shape):
            part = out[block]  # a view; no block's values outlive their copy
            part[...] = self._box_mass_lattice(*_on_block([lo, hi], block)).reshape(part.shape)
        return out.ravel()

    def _box_mass_lattice(self, lo, hi) -> np.ndarray:
        """Q^C[[lo, hi]] on one lattice block (``_lattice_box_mass``), flat in C order.

        ``lo[k]`` and ``hi[k]`` are axis k's faces: arrays that broadcast to
        the lattice (a batch's columns all lie along its one axis), or
        floats, 0.0 as a lower face and 1.0 as an upper one, constant over
        the lattice.  The default writes the lattice's points out and runs
        inclusion-exclusion over ``cdf_many``.  C is grounded, so a corner
        that takes lo on an axis where every lo is 0 adds nothing: such an
        axis always takes hi, and with no other axis the box mass is one
        ``cdf_many`` call on the hi points.  Otherwise the 2^f corners of
        the f free axes are stacked into one ``cdf_many`` call per run of
        ``_BOX_ROWS >> f`` rows, so no call holds more than _BOX_ROWS rows,
        and their signed values are added in corner order, lo side first:
        each row gets the bits that one call per corner gives.
        """
        d = self.dim
        free = _free_axes(lo)
        shape = np.broadcast(*lo, *hi).shape
        Hi = _points(hi, shape)
        if not any(free):
            return self.cdf_many(Hi)
        Lo = _points(lo, shape)
        masks = np.array(list(itertools.product(*[(0, 1) if f else (1,) for f in free])), bool)
        signs = np.where((d - masks.sum(axis=1)) % 2, -1.0, 1.0)
        step = max(_BOX_ROWS >> sum(free), 1)
        out = np.zeros(len(Lo))
        for r in range(0, len(Lo), step):
            corners = np.where(masks[:, None, :], Hi[r : r + step], Lo[r : r + step])
            vals = self.cdf_many(corners.reshape(-1, d)).reshape(len(masks), -1)
            acc = out[r : r + step]
            for sign, v in zip(signs, vals):
                acc += sign * v
        return out

    def box_mass(self, lo, hi) -> float:
        Lo = as_points(lo, self.dim)
        Hi = as_points(hi, self.dim)
        if np.any(Lo > Hi + 1e-12):
            raise InputError("box_mass requires lo <= hi coordinatewise")
        return float(self.box_mass_many(Lo, np.maximum(Hi, Lo))[0])

    def survival_many(self, U: np.ndarray) -> np.ndarray:
        """(tau C)(u) = Q^C[[1-u, 1]], the survival-copula value."""
        return self._lattice_box_mass((1.0 - U).T, [1.0] * self.dim)

    def survival_value(self, u) -> float:
        return float(self.survival_many(as_points(u, self.dim))[0])

    # -- measure features ------------------------------------------------

    @property
    def is_samplable(self) -> bool:
        return False

    def sample(self, seed: int, n: int) -> np.ndarray:
        raise UnsupportedRepresentationError(
            f"{type(self).__name__} has no exact sampler"
        )

    def product_moment(self, lo, hi, codes: Sequence[int]) -> float:
        """E[ 1_{[lo,hi]}(V) * prod_k f_k(V_k) ] under Q^C, exactly.

        ``codes[k]`` selects f_k from {1, v, 1-v}.  Raises
        UnsupportedRepresentationError when no exact path exists.
        """
        raise UnsupportedRepresentationError(
            f"{type(self).__name__} has no exact moment path"
        )

    def breakpoints(self, axis: int) -> np.ndarray:
        """Coordinates along ``axis`` where this cdf can kink (grid augmentation)."""
        return np.empty(0)


# ---------------------------------------------------------------------------
# Checkerboard representation
# ---------------------------------------------------------------------------


class CheckerboardCopula(Copula):
    """Mass tensor over a grid of cells with uniform margins.

    ``cuts`` is one strictly increasing array per axis, starting at 0 and
    ending at 1 (arbitrary cut points are allowed, not only uniform grids:
    the minimality refuter inserts cut planes at non-grid coordinates).
    ``masses`` has shape ``(len(cuts[0])-1, ..., len(cuts[d-1])-1)``.

    Construction enforces, to max(1e-12, cells * 1e-16): nonnegative
    masses, total mass 1, and uniform margins (each slab's mass equals its
    width).  Sums over a tensor round at the cell-count scale; a bound that
    grows with it accepts a board again after reflection, permutation,
    refinement and surgery.
    """

    def __init__(self, cuts: Sequence[np.ndarray], masses: np.ndarray):
        cuts = tuple(np.asarray(c, dtype=float) for c in cuts)
        d = _check_dim(len(cuts))
        if d < 2:
            raise InputError("checkerboard copulas need dimension >= 2")
        masses = np.asarray(masses, dtype=float)
        if not (np.isfinite(masses).all() and all(np.isfinite(c).all() for c in cuts)):
            raise InputError("checkerboard cuts and masses must be finite")
        if masses.ndim != d:
            raise InputError("mass tensor rank must equal the number of cut lists")
        for k, c in enumerate(cuts):
            if c.ndim != 1 or len(c) < 2 or c[0] != 0.0 or c[-1] != 1.0:
                raise InputError(f"cuts[{k}] must run from 0 to 1")
            if np.any(np.diff(c) <= 0):
                raise InputError(f"cuts[{k}] must be strictly increasing")
            if masses.shape[k] != len(c) - 1:
                raise InputError("mass tensor shape does not match the cuts")
        if masses.min(initial=0.0) < -1e-10:
            raise ValidationError(
                f"negative cell mass {masses.min():.3e} (beyond -1e-10)"
            )
        masses = np.clip(masses, 0.0, None)
        tol = max(CONSTRUCTION_TOL, masses.size * 1e-16)
        total = masses.sum()
        if abs(total - 1.0) > tol:
            raise ValidationError(f"total mass {float(total)!r} != 1 (tol {tol:.1e})")
        for k in range(d):
            slab = masses.sum(axis=tuple(i for i in range(d) if i != k))
            widths = np.diff(cuts[k])
            defect = np.max(np.abs(slab - widths))
            if defect > tol:
                raise ValidationError(
                    f"margin defect {defect:.3e} on axis {k}: slab masses "
                    f"must equal slab widths (tol {tol:.1e})"
                )
        self.dim = d
        self.cuts = cuts
        self.masses = masses
        self.masses.setflags(write=False)
        self._vertex_cdf = None

    @property
    def vertex_cdf(self) -> np.ndarray:
        """cdf values at all grid vertices (cumulative mass sums, exact),
        computed on first read: a board whose cdf nobody reads (a reflected
        board, the refined input of a refutation) never builds it.  Two
        threads reading it first at once compute the same tensor, and
        either may be kept."""
        if self._vertex_cdf is None:
            S = _cumulative(self.masses)
            S.setflags(write=False)
            self._vertex_cdf = S
        return self._vertex_cdf

    def _locate(self, U: np.ndarray):
        idx, frac = [], []
        for k in range(self.dim):
            c = self.cuts[k]
            # the interior cuts at or below u: a cell index in 0..len(c)-2
            i = np.searchsorted(c[1:-1], U[:, k], side="right")
            f = (U[:, k] - c[i]) / (c[i + 1] - c[i])
            idx.append(i)
            frac.append(np.clip(f, 0.0, 1.0))
        return idx, frac

    def cdf_many(self, U: np.ndarray) -> np.ndarray:
        # multilinear interpolation of the vertex cdf, summed in corner order;
        # a corner's vertex lies ``off`` places past its cell's lowest vertex
        # in the C-order vertex values
        idx, frac = self._locate(U)
        S = self.vertex_cdf
        shape, vals = S.shape, S.ravel()
        base = np.ravel_multi_index(idx, shape)
        steps = [math.prod(shape[k + 1 :]) for k in range(self.dim)]
        sides = [((1.0 - f, 0), (f, step)) for f, step in zip(frac, steps)]
        out = np.zeros(len(U))
        for w, off in _corner_fold(sides, np.multiply):
            out += w * vals[off:][base]
        return out

    @property
    def is_samplable(self) -> bool:
        return True

    def sample(self, seed: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        flat = self.masses.ravel()
        cells = rng.choice(len(flat), size=n, p=flat / flat.sum())
        multi = np.unravel_index(cells, self.masses.shape)
        out = np.empty((n, self.dim))
        for k in range(self.dim):
            lo = self.cuts[k][multi[k]]
            hi = self.cuts[k][multi[k] + 1]
            out[:, k] = lo + rng.random(n) * (hi - lo)
        return out

    def product_moment(self, lo, hi, codes: Sequence[int]) -> float:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(hi < lo - 1e-15):
            return 0.0
        # on the whole cube every cell is covered: its weight is exactly 1
        # and its factor f at the cell's midpoint
        whole = not lo.any() and (hi == 1.0).all()
        scaled = self.masses
        for k in range(self.dim):
            c = self.cuts[k]
            if whole:
                factor = _moment_eval(codes[k], 0.5 * (c[:-1] + c[1:]))
            else:
                left = np.maximum(c[:-1], lo[k])
                right = np.minimum(c[1:], hi[k])
                overlap = np.clip(right - left, 0.0, None)
                # uniform within the cell: weight = covered fraction, factor =
                # mean of f over the covered interval
                weight = overlap / np.diff(c)
                mid = np.where(overlap > 0, 0.5 * (left + right), 0.0)
                factor = weight * _moment_eval(codes[k], mid)
            scaled = scaled * _along(factor, k, self.dim)
        return float(scaled.sum())

    def kendall_self_integral(self) -> float:
        """int C dQ^C, exact: the cell average of a multilinear C is its
        corner average."""
        d = self.dim
        S = self.vertex_cdf
        acc = np.zeros(self.masses.shape)
        for mask in _corner_masks(d):
            sl = tuple(slice(m, m + s) for m, s in zip(mask, self.masses.shape))
            acc += S[sl]
        return float(np.sum(self.masses * acc) / 2**d)

    def breakpoints(self, axis: int) -> np.ndarray:
        return self.cuts[axis]


# ---------------------------------------------------------------------------
# Segment-supported representation
# ---------------------------------------------------------------------------


class SegmentCopula(Copula):
    """Mass uniform along finitely many line segments in I^d.

    Degenerate segments (any axis-parallel direction, or zero length) are
    rejected: every coordinate must move strictly monotonically along the
    parameter, which is what makes box and hyperplane masses exact interval
    computations.  Constructors must yield uniform margins; this is checked
    exactly at the endpoint projections (the margin cdf is piecewise linear
    with kinks only there), reading C at points that are 1 off the axis.

    Every query runs one kernel, ``_lattice_interval``: each segment's
    parameter interval inside every box of a lattice, folded one axis at a
    time; ``product_moment`` integrates over the interval of its one box.
    Its temporaries hold a value per segment and point, so the block loop
    of ``Copula._lattice_box_mass`` bounds them by segments x _BOX_ROWS.
    """

    def __init__(self, starts, ends, masses, _skip_margin_check: bool = False):
        starts = np.atleast_2d(np.array(starts, dtype=float))
        ends = np.atleast_2d(np.array(ends, dtype=float))
        masses = np.atleast_1d(np.array(masses, dtype=float))
        if starts.shape != ends.shape or len(masses) != len(starts):
            raise InputError("starts, ends and masses must agree in length")
        if not all(np.isfinite(x).all() for x in (starts, ends, masses)):
            raise InputError("segment endpoints and masses must be finite")
        d = _check_dim(starts.shape[1])
        if d < 2:
            raise InputError("segment copulas need dimension >= 2")
        if np.any(starts < -1e-12) or np.any(starts > 1 + 1e-12):
            raise InputError("segment endpoints must lie in the unit cube")
        if np.any(ends < -1e-12) or np.any(ends > 1 + 1e-12):
            raise InputError("segment endpoints must lie in the unit cube")
        if np.any(masses <= 0):
            raise InputError("segment masses must be positive")
        if abs(masses.sum() - 1.0) > CONSTRUCTION_TOL:
            raise ValidationError(f"segment masses sum to {float(masses.sum())!r}, not 1")
        dirs = ends - starts
        if np.any(np.abs(dirs) < 1e-12):
            raise InputError(
                "degenerate segment: every coordinate must change along the segment"
            )
        self.dim = d
        self.starts = np.clip(starts, 0.0, 1.0)
        self.ends = np.clip(ends, 0.0, 1.0)
        self.masses = masses
        self.dirs = self.ends - self.starts
        for a in (self.starts, self.ends, self.masses, self.dirs):
            a.setflags(write=False)
        if not _skip_margin_check:
            self._check_uniform_margins()

    def _check_uniform_margins(self) -> None:
        for k in range(self.dim):
            pts = np.unique(
                np.concatenate([[0.0, 1.0], self.starts[:, k], self.ends[:, k]])
            )
            # the margin cdf on axis k is C at points that are 1 off axis k
            axes = [pts if j == k else np.ones(1) for j in range(self.dim)]
            defect = np.max(np.abs(self.cdf_grid(axes).ravel() - pts))
            if defect > CONSTRUCTION_TOL:
                raise ValidationError(
                    f"segment system has non-uniform margin on axis {k} "
                    f"(defect {defect:.3e}); not a copula"
                )

    def _lattice_interval(self, lo, hi):
        """Per segment and lattice point: the t-interval [t0, t1] where
        lo <= gamma(t) <= hi.

        ``lo[k]`` and ``hi[k]`` are axis k's faces as in
        ``Copula._box_mass_lattice``: arrays that broadcast to the lattice,
        or floats, whose crossings are taken once per segment.  One pass
        per axis folds the crossings (lo_k - s_k)/dir_k and
        (hi_k - s_k)/dir_k, with the segments on a new first axis, into
        running bounds t0 (max over axes of the smaller) and t1 (min of the
        larger), then clips both to [0, 1].
        """
        # the lattice's rank (np.ndim is several times slower on a float)
        pad = (Ellipsis,) + (None,) * max(getattr(x, "ndim", 0) for x in (*lo, *hi))
        starts, dirs = self.starts.T[pad], self.dirs.T[pad]
        for k in range(self.dim):
            s, dirv = starts[k], dirs[k]
            r_lo = (lo[k] - s) / dirv
            r_hi = (hi[k] - s) / dirv
            upper = np.maximum(r_lo, r_hi)
            lower = np.minimum(r_lo, r_hi, out=r_hi if r_hi.shape == upper.shape else None)
            if k == 0:
                t0, t1 = lower, upper
            else:
                # in place unless the lattice grows by this axis
                t0 = np.maximum(t0, lower, out=t0 if t0.shape == lower.shape else None)
                t1 = np.minimum(t1, upper, out=t1 if t1.shape == upper.shape else None)
        return np.clip(t0, 0.0, 1.0, out=t0), np.clip(t1, 0.0, 1.0, out=t1)

    def _box_mass_lattice(self, lo, hi) -> np.ndarray:
        """Q^C[[lo, hi]] at every lattice point, flat in C order (so that a
        batch gets an array that owns its data, which numpy's arithmetic
        reuses in place, as it cannot a reshaped view)."""
        t0, t1 = self._lattice_interval(lo, hi)
        length = np.subtract(t1, t0, out=t1)
        np.clip(length, 0.0, None, out=length)
        return self.masses @ length.reshape(len(self.masses), -1)

    @property
    def is_samplable(self) -> bool:
        return True

    def sample(self, seed: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self.masses), size=n, p=self.masses / self.masses.sum())
        t = rng.random(n)
        return self.starts[idx] + t[:, None] * self.dirs[idx]

    def product_moment(self, lo, hi, codes: Sequence[int]) -> float:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(hi < lo - 1e-15):
            return 0.0
        # the one box is a lattice of no axes
        t0, t1 = self._lattice_interval(lo, hi)
        # the integrand is a polynomial of degree <= d in the parameter
        m = self.dim // 2 + 2
        nodes, weights = _gauss_nodes(m, t0, t1)
        vals = np.ones_like(nodes)
        for k in range(self.dim):
            coord = self.starts[:, k, None] + nodes * self.dirs[:, k, None]
            vals = vals * _moment_eval(codes[k], coord)
        seg = np.where(t1 > t0, (weights * vals).sum(axis=1), 0.0)
        return float(self.masses @ seg)

    def breakpoints(self, axis: int) -> np.ndarray:
        return np.unique(np.concatenate([self.starts[:, axis], self.ends[:, axis]]))


# ---------------------------------------------------------------------------
# Analytic nodes
# ---------------------------------------------------------------------------


class UpperFrechet(Copula):
    """M(u) = min(u): the pointwise greatest copula (comonotone measure)."""

    def __init__(self, dim: int):
        self.dim = _check_dim(dim)
        if dim < 2:
            raise InputError("copulas need dimension >= 2")

    def cdf_many(self, U: np.ndarray) -> np.ndarray:
        return U.min(axis=1)

    @property
    def is_samplable(self) -> bool:
        return True

    def sample(self, seed: int, n: int) -> np.ndarray:
        t = np.random.default_rng(seed).random(n)
        return np.repeat(t[:, None], self.dim, axis=1)

    def product_moment(self, lo, hi, codes: Sequence[int]) -> float:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        t0, t1 = lo.max(), hi.min()
        if t1 <= t0:
            return 0.0
        nodes, weights = _gauss_nodes(self.dim // 2 + 2, t0, t1)
        vals = np.ones_like(nodes)
        for k in range(self.dim):
            vals = vals * _moment_eval(codes[k], nodes)
        return float((weights * vals).sum())


class LowerFrechet2d(Copula):
    """W(u) = max(u1 + u2 - 1, 0): a copula only in dimension 2."""

    def __init__(self):
        self.dim = 2

    def cdf_many(self, U: np.ndarray) -> np.ndarray:
        return np.clip(U[:, 0] + U[:, 1] - 1.0, 0.0, None)

    @property
    def is_samplable(self) -> bool:
        return True

    def sample(self, seed: int, n: int) -> np.ndarray:
        t = np.random.default_rng(seed).random(n)
        return np.column_stack([t, 1.0 - t])

    def product_moment(self, lo, hi, codes: Sequence[int]) -> float:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        t0 = max(lo[0], 1.0 - hi[1])
        t1 = min(hi[0], 1.0 - lo[1])
        if t1 <= t0:
            return 0.0
        nodes, weights = _gauss_nodes(3, t0, t1)
        vals = _moment_eval(codes[0], nodes) * _moment_eval(codes[1], 1.0 - nodes)
        return float((weights * vals).sum())


class ProductCopula(Copula):
    """Pi(u) = prod(u): independence.  Dimension 1 is allowed so that the
    product copula can act as a glue factor (its measure is Lebesgue)."""

    def __init__(self, dim: int):
        self.dim = _check_dim(dim)

    def _box_mass_lattice(self, lo, hi) -> np.ndarray:
        """The product of the box's side lengths, axis by axis."""
        out = np.ones(np.broadcast(*lo, *hi).shape)
        for l, h in zip(lo, hi):
            out *= np.clip(h - l, 0.0, None)
        return out.ravel()

    @property
    def is_samplable(self) -> bool:
        return True

    def sample(self, seed: int, n: int) -> np.ndarray:
        return np.random.default_rng(seed).random((n, self.dim))

    def product_moment(self, lo, hi, codes: Sequence[int]) -> float:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        out = 1.0
        for k in range(self.dim):
            a, b = lo[k], hi[k]
            if b <= a:
                return 0.0
            if codes[k] == MOMENT_ONE:
                out *= b - a
            elif codes[k] == MOMENT_V:
                out *= 0.5 * (b * b - a * a)
            else:
                out *= (b - a) - 0.5 * (b * b - a * a)
        return float(out)


class ClaytonExtreme(Copula):
    """The Clayton copula at its extreme parameter -1/(d-1):

        C(u) = phi( sum_k g(u_k) ),  g(u) = u^{1/(d-1)},
        phi(s) = max( s - (d-1), 0 )^{d-1}.

    Its measure concentrates on the surface sum_k g(u_k) = d-1.
    At d=2 the formula reduces to W.  The sum is separable, so one kernel,
    ``_box_mass_lattice``, serves the cdf and box masses of batches and
    lattices, a block at a time: g once per node (once in all on a float
    face such as a survival box's upper face 1.0), phi once per corner at
    the shape of its g-sum; the cdf is the box from the origin, its hi
    corner alone.
    phi's integer power is d-2 repeated products: most arguments of phi
    are exactly 0, and ``np.power`` falls off its fast path on zeros
    (several times slower per element than a product).  Products give
    ``np.power``'s bits for d <= 3 and stay within a few ulps of it above
    (at most 1, 2 and 3 ulps measured at d = 4, 5, 6), with zeros in the
    same places.
    """

    def __init__(self, dim: int):
        self.dim = _check_dim(dim)
        if dim < 2:
            raise InputError("copulas need dimension >= 2")

    def _box_mass_lattice(self, lo, hi) -> np.ndarray:
        """Q^C[[lo, hi]] at every point of a block, flat in C order: the sum
        over the box corners, walked as ``Copula._box_mass_lattice`` walks
        them, of (-1)^{lo sides} phi(sum_k g_k); an axis whose lo is 0
        everywhere takes only its hi side, and g(1.0) is exactly 1.0."""
        d = self.dim
        e = 1.0 / (d - 1)
        shape = np.broadcast(*lo, *hi).shape
        sides = [
            ((np.power(x, e), 1), (np.power(h, e), 0)) if f else ((np.power(h, e), 0),)
            for x, h, f in zip(lo, hi, _free_axes(lo))
        ]
        out = np.zeros(shape)
        x = np.empty(shape)
        y = np.empty(shape)
        for s, lows in _corner_fold(sides, np.add):
            # a sum narrower than the block gets buffers of its own shape
            xs, ys = (x, y) if s.shape == shape else (np.empty(s.shape), np.empty(s.shape))
            np.subtract(s, d - 1, out=xs)
            np.maximum(xs, 0.0, out=xs)
            np.copyto(ys, xs)
            for _ in range(d - 2):
                ys *= xs
            if lows % 2:
                out -= ys
            else:
                out += ys
        return out.ravel()


def _along(v: np.ndarray, k: int, d: int) -> np.ndarray:
    """A 1-d array shaped to broadcast along axis k of d."""
    return v.reshape([-1 if j == k else 1 for j in range(d)])


def _lattice(axes: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-axis node arrays shaped to broadcast into their product grid."""
    return [_along(np.asarray(a, dtype=float), k, len(axes)) for k, a in enumerate(axes)]


def _free_axes(lo) -> list[bool]:
    """Per lower face, whether it is nonzero anywhere: a grounded copula's
    box on an axis whose lo is 0 everywhere takes only its hi side."""
    return [bool(x.any()) if isinstance(x, np.ndarray) else x != 0.0 for x in lo]


def _points(faces, shape) -> np.ndarray:
    """One face per axis (an array that broadcasts to ``shape``, or a
    float) written out as the (N, d) points of the lattice, in C order.
    Faces given as one array, a row per axis (a batch's transpose), are
    already written out: its transpose is returned."""
    if isinstance(faces, np.ndarray) and faces.shape[1:] == tuple(shape):
        return faces.T
    out = np.empty(tuple(shape) + (len(faces),), dtype=np.result_type(*faces))
    for k, x in enumerate(faces):
        out[..., k] = x
    return out.reshape(-1, len(faces))


def _lattice_blocks(shape):
    """Index tuples (one slice per axis) that cut a C-order lattice of one
    or more axes into blocks of at most _BOX_ROWS points: whole trailing
    axes, a run of nodes on the first axis whose trailing axes fit, one node
    on each axis before it."""
    d = len(shape)
    if 0 in shape:
        return
    j = 0
    while j < d - 1 and math.prod(shape[j + 1 :]) > _BOX_ROWS:
        j += 1
    step = max(_BOX_ROWS // math.prod(shape[j + 1 :]), 1)
    for head in itertools.product(*(range(n) for n in shape[:j])):
        for r in range(0, shape[j], step):
            yield (
                tuple(slice(i, i + 1) for i in head)
                + (slice(r, r + step),)
                + (slice(None),) * (d - j - 1)
            )


def _on_block(faces, block):
    """Box faces on one block of ``_lattice_blocks``: a float face as it is,
    an array face (or a batch's faces in one array, a row per axis) sliced
    on each of its trailing axes that it varies along, a list item by item."""
    if isinstance(faces, list):
        return [_on_block(x, block) for x in faces]
    if not isinstance(faces, np.ndarray):
        return faces
    tail = faces.shape[faces.ndim - len(block) :]
    return faces[(Ellipsis,) + tuple(b if n > 1 else slice(None) for b, n in zip(block, tail))]


def _corner_fold(sides, op, k=0, acc=None, tag=0):
    """(value, tag) for each corner of a box, depth first: ``sides[k]``
    lists axis k's (value, tag) choices in visiting order.  A corner's
    value folds its axes' values left to right with ``op`` (``np.add`` for
    a g-sum, ``np.multiply`` for a weight) and its tag sums theirs; siblings
    share the partial fold, so at most one partial value per axis is
    alive."""
    if k == len(sides):
        yield acc, tag
        return
    for v, t in sides[k]:
        yield from _corner_fold(sides, op, k + 1, v if acc is None else op(acc, v), tag + t)


class Reflected(Copula):
    """nu_K(C): the distribution of eta_K(U, 1-U) when U ~ Q^C.

    Each of its boxes is one box of the inner copula, reflected on K:

        Q^{nu_K C}[ prod_k [lo_k, hi_k] ] = Q^C[ prod_k I_k ],
        I_k = [1 - hi_k, 1 - lo_k] on K, [lo_k, hi_k] off K,

    so one call of the inner copula's ``_box_mass_lattice`` serves every
    query; its cdf takes I_k = [1 - u_k, 1] on K and [0, u_k] off K, the
    inclusion-exclusion over the 2^|K| corners of the reflected axes.  A
    float face stays a float (1 - 0.0 is 1.0), so a separable inner copula
    takes it once and no (N, d) copy of it is made; any other inner copula
    gets the faces written out.
    """

    def __init__(self, inner: Copula, K: Iterable[int]):
        K = frozenset(int(k) for k in K)
        if not K <= set(range(inner.dim)):
            raise InputError(f"reflection set {sorted(K)} outside 0..{inner.dim - 1}")
        self.inner = inner
        self.K = K
        self.dim = inner.dim

    def _box_mass_lattice(self, lo, hi) -> np.ndarray:
        faces = [
            (1.0 - h, 1.0 - x) if k in self.K else (x, h) for k, (x, h) in enumerate(zip(lo, hi))
        ]
        return self.inner._box_mass_lattice(*zip(*faces))

    @property
    def is_samplable(self) -> bool:
        return self.inner.is_samplable

    def sample(self, seed: int, n: int) -> np.ndarray:
        pts = self.inner.sample(seed, n)
        pts = np.array(pts)
        for k in self.K:
            pts[:, k] = 1.0 - pts[:, k]
        return pts

    def product_moment(self, lo, hi, codes: Sequence[int]) -> float:
        lo = np.array(lo, dtype=float)
        hi = np.array(hi, dtype=float)
        codes = list(codes)
        for k in self.K:
            lo[k], hi[k] = 1.0 - hi[k], 1.0 - lo[k]
            codes[k] = _MOMENT_FLIP[codes[k]]
        return self.inner.product_moment(lo, hi, codes)

    def breakpoints(self, axis: int) -> np.ndarray:
        b = self.inner.breakpoints(axis)
        return np.sort(1.0 - b) if axis in self.K else b


class Permuted(Copula):
    """pi_sigma(C): coordinates permuted, (pi_sigma C)(u) = C(u[sigma])."""

    def __init__(self, inner: Copula, sigma: Sequence[int]):
        sigma = tuple(int(s) for s in sigma)
        if sorted(sigma) != list(range(inner.dim)):
            raise InputError(f"{sigma} is not a permutation of 0..{inner.dim - 1}")
        self.inner = inner
        self.sigma = sigma
        self.dim = inner.dim
        inv = [0] * inner.dim
        for i, s in enumerate(sigma):
            inv[s] = i
        self.sigma_inv = tuple(inv)

    def cdf_many(self, U: np.ndarray) -> np.ndarray:
        return self.inner.cdf_many(U[:, self.sigma])

    @property
    def is_samplable(self) -> bool:
        return self.inner.is_samplable

    def sample(self, seed: int, n: int) -> np.ndarray:
        return self.inner.sample(seed, n)[:, self.sigma_inv]

    def product_moment(self, lo, hi, codes: Sequence[int]) -> float:
        lo = np.asarray(lo, dtype=float)[list(self.sigma)]
        hi = np.asarray(hi, dtype=float)[list(self.sigma)]
        codes = [codes[s] for s in self.sigma]
        return self.inner.product_moment(lo, hi, codes)

    def breakpoints(self, axis: int) -> np.ndarray:
        # u_axis feeds inner coordinate i with sigma[i] = axis
        return self.inner.breakpoints(self.sigma_inv[axis])


class GlueProduct(Copula):
    """E(u, v) = C(u) D(v): the product-glue of two copulas on disjoint
    coordinate blocks; Q^E is the product measure Q^C x Q^D."""

    def __init__(self, left: Copula, right: Copula):
        self.left = left
        self.right = right
        self.dim = _check_dim(left.dim + right.dim)
        if self.dim < 3:
            raise InputError("glue products need total dimension >= 3")

    def _box_mass_lattice(self, lo, hi) -> np.ndarray:
        # the product of the halves' box masses, each half on its own axes of
        # the lattice (on a grid, the outer product of the halves' tensors);
        # a point's grid value has its batch bits unless a half's value
        # depends on how many points its call holds, as a segment half's
        # ``masses @``, a BLAS product, can
        dl = self.left.dim
        halves = [
            X._box_mass_lattice(l, h).reshape(np.broadcast(*l, *h).shape)
            for X, l, h in ((self.left, lo[:dl], hi[:dl]), (self.right, lo[dl:], hi[dl:]))
        ]
        return (halves[0] * halves[1]).ravel()

    @property
    def is_samplable(self) -> bool:
        return self.left.is_samplable and self.right.is_samplable

    def sample(self, seed: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        sl = int(rng.integers(0, 2**32))
        sr = int(rng.integers(0, 2**32))
        return np.hstack([self.left.sample(sl, n), self.right.sample(sr, n)])

    def product_moment(self, lo, hi, codes: Sequence[int]) -> float:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        dl = self.left.dim
        return self.left.product_moment(
            lo[:dl], hi[:dl], list(codes)[:dl]
        ) * self.right.product_moment(lo[dl:], hi[dl:], list(codes)[dl:])

    def breakpoints(self, axis: int) -> np.ndarray:
        if axis < self.left.dim:
            return self.left.breakpoints(axis)
        return self.right.breakpoints(axis - self.left.dim)


class MixtureCopula(Copula):
    """Convex combination of copulas; the measure is the weighted mixture."""

    def __init__(self, parts: Sequence[tuple[Copula, float]]):
        parts = tuple((c, float(w)) for c, w in parts)
        if not parts:
            raise InputError("mixture needs at least one part")
        dims = {c.dim for c, _ in parts}
        if len(dims) != 1:
            raise DimensionMismatchError("mixture parts must share a dimension")
        weights = np.array([w for _, w in parts])
        if (
            not np.isfinite(weights).all()
            or np.any(weights <= 0)
            or abs(weights.sum() - 1.0) > CONSTRUCTION_TOL
        ):
            raise DomainError("mixture weights must be positive and sum to 1")
        self.parts = parts
        self.dim = dims.pop()

    def _box_mass_lattice(self, lo, hi) -> np.ndarray:
        out = np.zeros(math.prod(np.broadcast(*lo, *hi).shape))
        for c, w in self.parts:
            out += w * c._box_mass_lattice(lo, hi)
        return out

    @property
    def is_samplable(self) -> bool:
        return all(c.is_samplable for c, _ in self.parts)

    def sample(self, seed: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        if n == 0:
            return np.empty((0, self.dim))
        weights = np.array([w for _, w in self.parts])
        counts = rng.multinomial(n, weights)
        blocks = [
            c.sample(int(rng.integers(0, 2**32)), int(m))
            for (c, _), m in zip(self.parts, counts)
            if m > 0
        ]
        pts = np.vstack(blocks)
        return pts[rng.permutation(n)]

    def product_moment(self, lo, hi, codes: Sequence[int]) -> float:
        return float(
            sum(w * c.product_moment(lo, hi, codes) for c, w in self.parts)
        )

    def breakpoints(self, axis: int) -> np.ndarray:
        return np.unique(np.concatenate([c.breakpoints(axis) for c, _ in self.parts]))


class RefutedCopula(Copula):
    """The strictly concordance-smaller copula built by the corner surgery.

    Given a copula C with corner masses Q^C[[0,a]] = p = Q^C[[b,1]]
    (p in (0, 1/2], a <= b interior), define the corner distribution
    functions

        C_a(u) = C(u /\\ a) / p,
        C_b(u) = Q^C[ prod_k [b_k, max(u_k, b_k)] ] / p,

    their average C_1 = (C_a + C_b)/2, and the cross-glued

        C_2(u) = ( C_a(u_1,1,..,1) C_b(1,u_2,..,u_d)
                 + C_b(u_1,1,..,1) C_a(1,u_2,..,u_d) ) / 2,

    which couples the first-coordinate marginal of one corner independently
    to the remaining-coordinate marginal of the other.  Then

        D = C - 2p C_1 + 2p C_2

    is a copula with D <= C, tau(D) <= tau(C) and D(a) = C(a) - p < C(a).

    Worked example, C = M in d = 2: a = b = (1/2, 1/2) and p = 1/2, so the
    corners are the two halves of the diagonal and 2p C_1 = M, leaving
    D = C_2.  Each corner's first coordinate, uniform on its half, is glued
    independently to the other corner's second coordinate: D has density 2
    on [0,1/2]x[1/2,1] and [1/2,1]x[0,1/2] and rho(D) = -3/4.  These are
    the squares of shuffle_A, but shuffle_A is the comonotone coupling of
    the same marginals (rho = -1/2), and D lies strictly below it.  A
    comonotone coupling of a scalar with a (d-1)-vector has no canonical
    form for d >= 3, which is why the independent one is used.

    D's box masses and moments on a box each read seven boxes of C
    (``_boxes``); its cdf is the box from the origin.
    """

    def __init__(self, inner: Copula, a, b, p: float):
        d = inner.dim
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != (d,) or b.shape != (d,):
            raise DimensionMismatchError("a and b must be points of the inner copula")
        if np.any(a > b + 1e-12):
            raise InputError("surgery requires a <= b coordinatewise")
        if np.any(a <= 0) or np.any(b >= 1):
            raise InputError("surgery corners must lie in the open cube")
        if not 0.0 < p <= 0.5 + 1e-12:
            raise InputError(f"surgery mass p must lie in (0, 0.5], got {p}")
        pa = inner.box_mass(np.zeros(d), a)
        pb = inner.box_mass(b, np.ones(d))
        if abs(pa - p) > EXACT_TOL or abs(pb - p) > EXACT_TOL:
            raise InputError(
                f"corner masses {pa:.3e}/{pb:.3e} do not match p={p:.3e}"
            )
        self.inner = inner
        self.a = a
        self.b = b
        self.p = float(p)
        self.dim = d
        a.setflags(write=False)
        b.setflags(write=False)

    def _boxes(self, lo, hi):
        """The boxes of C that D's measure on [lo, hi] reads, as lists of
        (lo_k, hi_k) faces (arrays or floats, as in ``_box_mass_lattice``):
        the box; its parts A in [0, a] and B in [b, 1], degenerate where it
        misses a corner, never inverted; and each corner's first-coordinate
        (A1, B1) and remaining-coordinate (AR, BR) marginal boxes.  A
        surgery node over a surgery node can get all-float faces: one box.
        """
        a, b = self.a.tolist(), self.b.tolist()
        A = [(x, np.maximum(x, np.minimum(h, t))) for x, h, t in zip(lo, hi, a)]
        B = [(np.maximum(x, t), np.maximum(h, t)) for x, h, t in zip(lo, hi, b)]
        A1 = A[:1] + [(0.0, t) for t in a[1:]]
        AR = [(0.0, a[0])] + A[1:]
        B1 = B[:1] + [(t, 1.0) for t in b[1:]]
        BR = [(b[0], 1.0)] + B[1:]
        return list(zip(lo, hi)), A, B, A1, AR, B1, BR

    def _box_mass_lattice(self, lo, hi) -> np.ndarray:
        """Q^C - 2p Q^{C_1} + 2p Q^{C_2}: the pieces of ``_boxes``, each
        at its own broadcast shape, combined by broadcasting."""
        p = self.p
        C, A, B, A1, AR, B1, BR = (
            self.inner._box_mass_lattice(l, h).reshape(np.broadcast(*l, *h).shape)
            for l, h in (zip(*box) for box in self._boxes(lo, hi))
        )
        c1 = 0.5 * (A / p + B / p)
        c2 = 0.5 * ((A1 / p) * (BR / p) + (B1 / p) * (AR / p))
        return (C - 2.0 * p * (c1 - c2)).ravel()

    def product_moment(self, lo, hi, codes: Sequence[int]) -> float:
        # the cross-glued corner marginals are product measures
        codes = list(codes)
        first = codes[:1] + [MOMENT_ONE] * (self.dim - 1)
        rest = [MOMENT_ONE] + codes[1:]
        C, A, B, A1, AR, B1, BR = (
            self.inner.product_moment(*zip(*box), c)
            for box, c in zip(self._boxes(lo, hi), [codes] * 3 + [first, rest, first, rest])
        )
        return float(C - A - B + (1.0 / self.p) * (A1 * BR + B1 * AR))

    def breakpoints(self, axis: int) -> np.ndarray:
        return np.unique(
            np.concatenate(
                [self.inner.breakpoints(axis), [self.a[axis], self.b[axis]]]
            )
        )


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------


def cdf(C: Copula, u) -> float:
    """C(u).  Always in [W(u), M(u)] up to float noise."""
    return C.cdf(u)


def box_mass(C: Copula, lo, hi) -> float:
    """Q^C[[lo, hi]] for lo <= hi coordinatewise."""
    return C.box_mass(lo, hi)


def survival_value(C: Copula, u) -> float:
    """(tau C)(u) = Q^C[[1-u, 1]]: one box mass of C."""
    return C.survival_value(u)


def sample(C: Copula, seed: int, n: int) -> np.ndarray:
    """n i.i.d. draws from Q^C; deterministic given the seed."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise InputError(f"sample count must be a nonnegative integer, got {n!r}")
    return C.sample(seed, int(n))


def grid_axes(copulas: Sequence[Copula], resolution: int) -> list[np.ndarray]:
    """Per-axis evaluation nodes: a uniform grid augmented with every natural
    breakpoint (cuts, segment endpoints, surgery corners) of the copulas,
    thinned to at most about MAX_AXIS_NODES per axis.  Breakpoints are where
    piecewise-linear cdfs attain extreme differences.  A resolution below 2
    is rejected: one cell leaves an axis with no breakpoint at {0, 1}.
    """
    if not copulas:
        raise InputError("grid_axes needs at least one copula")
    if resolution < 2:
        raise InputError(f"grid resolution must be >= 2, got {resolution}")
    d = copulas[0].dim
    axes = []
    for k in range(d):
        nodes = [np.linspace(0.0, 1.0, resolution + 1)]
        nodes += [np.clip(c.breakpoints(k), 0.0, 1.0) for c in copulas]
        # drop near-duplicates; keep the grid bounded
        merged = merge_cuts(*nodes)
        if len(merged) > MAX_AXIS_NODES:
            merged = np.unique(
                np.concatenate(
                    [merged[:: len(merged) // MAX_AXIS_NODES + 1], merged[[0, -1]]]
                )
            )
        axes.append(merged)
    return axes


def merge_cuts(*cut_lists) -> np.ndarray:
    """Sorted union of cut lists without near-duplicates.

    Every distinct point of the first list is kept, however close to
    another.  A point of a later list within CUT_GAP of a point already
    kept, or of the point before it in its own list, is dropped.  So the
    points of earlier lists win: a board's cuts merged with new corners
    keep every cut of the board.  Sorting stands in for ``np.unique``: a
    repeated point is within any gap of its copy, and the points kept from
    different lists are distinct.
    """
    kept = np.empty(0)
    for i, cuts in enumerate(cut_lists):
        new = np.sort(np.asarray(cuts, dtype=float), axis=None)
        new = new[np.diff(new, prepend=-np.inf) > (CUT_GAP if i else 0.0)]
        if kept.size:
            new = new[np.abs(new[:, None] - kept).min(axis=1) > CUT_GAP]
            new = np.sort(np.concatenate([kept, new]))
        kept = new
    return kept


def _insert_cuts(cuts: np.ndarray, points) -> np.ndarray:
    """``merge_cuts(cuts, points)`` for strictly increasing ``cuts``, by
    insertion: each point is placed by ``searchsorted`` and compared with
    its two neighbours among the cuts only.  A few points cost a few scalar
    steps, not a merge of whole arrays.  Returns ``cuts`` itself when no
    point is inserted."""
    pieces, start, prev = [], 0, -np.inf
    last = len(cuts) - 1
    for x in sorted(map(float, points)):
        # as in merge_cuts, a point within CUT_GAP of the one before it in
        # its list is dropped
        if x - prev > CUT_GAP:
            i = int(np.searchsorted(cuts, x))
            if min(abs(x - cuts[max(i - 1, 0)]), abs(x - cuts[min(i, last)])) > CUT_GAP:
                pieces += [cuts[start:i], [x]]
                start = i
        prev = x
    if not pieces:
        return cuts
    return np.concatenate(pieces + [cuts[start:]])


def grid_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Cartesian product of per-axis node lists as an (N, d) array
    (C-order, so lexicographic in the axis values), each axis written into
    its column by broadcasting."""
    lattice = [_along(np.asarray(a), k, len(axes)) for k, a in enumerate(axes)]
    return _points(lattice, [len(a) for a in axes])


def default_resolution(d: int) -> int:
    return 32 if d <= 3 else (16 if d == 4 else 8)


def validate(C: Copula, resolution: int | None = None) -> ValidationReport:
    """Grid-level validity check: worst negative elementary-cell mass, worst
    margin defect |C(1,..,t,..,1) - t| and worst grounding defect
    |C(..,0,..)|.  Passes iff all are <= 1e-9.  Failures are report entries,
    never exceptions.

    A checkerboard given without ``resolution`` is checked at its own
    vertices, off ``vertex_cdf``: its cdf is multilinear between cuts, so a
    finer grid only splits each cell's mass by volume, and the margin
    defect, linear between cuts, peaks on a cut.  An explicit
    ``resolution``, and every other copula, use a uniform grid plus the
    copula's breakpoints, evaluated as one ``cdf_grid`` tensor.
    """
    if resolution is None and isinstance(C, CheckerboardCopula):
        axes, vals = C.cuts, C.vertex_cdf
        desc = "checkerboard vertices"
    else:
        if resolution is None:
            resolution = default_resolution(C.dim)
        axes = grid_axes([C], resolution)
        vals = C.cdf_grid(axes)
        desc = f"uniform {resolution}+breakpoints"
    cells = vals
    for ax in range(C.dim):
        cells = np.diff(cells, axis=ax)
    worst_neg = max(0.0, -float(cells.min()))
    margin = 0.0
    grounding = 0.0
    for k in range(C.dim):
        sl = [-1] * C.dim
        sl[k] = slice(None)
        margin = max(margin, float(np.max(np.abs(vals[tuple(sl)] - axes[k]))))
        sl = [slice(None)] * C.dim
        sl[k] = 0
        grounding = max(grounding, float(np.max(np.abs(vals[tuple(sl)]))))
    desc += f", axes sizes {[len(a) for a in axes]}"
    return ValidationReport(worst_neg, margin, grounding, desc)

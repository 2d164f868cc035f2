"""The transformation group on copulas: reflections, permutations, survival.

``reflect(C, K)`` realises nu_K, the involution sending Q^C to the law of
eta_K(U, 1-U); ``survival`` is the total reflection nu_{0..d-1}.  Each
representation has a structural path (tensor flips for checkerboards,
endpoint maps for segments) so the transformed object keeps its exactness;
only generic analytic nodes fall back to an inclusion-exclusion wrapper.

``discretize`` projects any copula onto a checkerboard by measuring every
grid cell, never by sampling; the result matches the original cdf at every
grid vertex exactly and inherits exact uniform margins from the input's.
``as_board`` instead returns the checkerboard that *equals* a copula, for
the copulas that are boards: Pi, and mixtures, glue products, reflections
and permutations built from boards and Pi.  ``orthant_masses`` gives the
lower- and upper-orthant masses C(v) and Q^C[[v,1]] at every vertex of a
grid, the numbers the tau-CM scan and the concordance order compare.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .core import (
    CheckerboardCopula,
    Copula,
    GlueProduct,
    MixtureCopula,
    Permuted,
    ProductCopula,
    Reflected,
    RefutedCopula,
    SegmentCopula,
    _along,
    _corner_masks,
    _cumulative,
    default_resolution,
)
from .errors import InputError, ValidationError

__all__ = ["reflect", "permute", "survival", "discretize", "as_board", "uniform_cuts"]


def _norm_reflection(C: Copula, K: Iterable[int]) -> frozenset[int]:
    K = frozenset(int(k) for k in K)
    if not K <= set(range(C.dim)):
        raise InputError(f"reflection axes {sorted(K)} outside 0..{C.dim - 1}")
    return K


def reflect(C: Copula, K: Iterable[int]) -> Copula:
    """nu_K(C): flip the coordinates in K at the measure level.

    Pi is invariant and comes back as it is.  Checkerboards reverse tensor
    axes (with cut lists mapped through c -> 1-c), segments flip endpoint
    coordinates, reflections of reflections collapse through the symmetric
    difference, and the total reflection of a surgery node is again a
    surgery node on the survival copula.  nu_K is an involution:
    reflect(reflect(C, K), K) == C.
    """
    K = _norm_reflection(C, K)
    if not K or isinstance(C, ProductCopula):
        return C
    if isinstance(C, CheckerboardCopula):
        cuts = [
            np.sort(1.0 - c) if k in K else c for k, c in enumerate(C.cuts)
        ]
        masses = np.flip(C.masses, axis=tuple(sorted(K)))
        return CheckerboardCopula(cuts, masses)
    if isinstance(C, SegmentCopula):
        starts = C.starts.copy()
        ends = C.ends.copy()
        for k in K:
            starts[:, k] = 1.0 - C.starts[:, k]
            ends[:, k] = 1.0 - C.ends[:, k]
        return SegmentCopula(starts, ends, C.masses, _skip_margin_check=True)
    if isinstance(C, Reflected):
        K2 = C.K.symmetric_difference(K)
        return C.inner if not K2 else Reflected(C.inner, K2)
    if isinstance(C, GlueProduct):
        dl = C.left.dim
        KL = [k for k in K if k < dl]
        KR = [k - dl for k in K if k >= dl]
        return GlueProduct(reflect(C.left, KL), reflect(C.right, KR))
    if isinstance(C, MixtureCopula):
        return MixtureCopula([(reflect(c, K), w) for c, w in C.parts])
    if isinstance(C, RefutedCopula) and K == frozenset(range(C.dim)):
        # the survival of a surgery node is the surgery on the survival
        # copula with corners mapped through u -> 1-u
        return RefutedCopula(
            reflect(C.inner, K), 1.0 - C.b, 1.0 - C.a, C.p
        )
    return Reflected(C, K)


def survival(C: Copula) -> Copula:
    """tau(C) = nu_{all}(C), the survival copula; an involution."""
    return reflect(C, range(C.dim))


def permute(C: Copula, sigma: Sequence[int]) -> Copula:
    """pi_sigma(C): (pi_sigma C)(u) = C(u[sigma[0]], ..., u[sigma[d-1]]).

    Pi is invariant and comes back as it is.  Checkerboards and segments
    permute their axes structurally; permutations of permutations compose.
    """
    sigma = tuple(int(s) for s in sigma)
    if sorted(sigma) != list(range(C.dim)):
        raise InputError(f"{sigma} is not a permutation of 0..{C.dim - 1}")
    if sigma == tuple(range(C.dim)) or isinstance(C, ProductCopula):
        return C
    inv = [0] * C.dim
    for i, s in enumerate(sigma):
        inv[s] = i
    if isinstance(C, CheckerboardCopula):
        cuts = [C.cuts[i] for i in inv]
        return CheckerboardCopula(cuts, np.transpose(C.masses, axes=inv))
    if isinstance(C, SegmentCopula):
        return SegmentCopula(
            C.starts[:, inv], C.ends[:, inv], C.masses, _skip_margin_check=True
        )
    if isinstance(C, Permuted):
        # (pi_sigma (pi_s1 inner))(u) = inner(x), x_j = u[sigma[s1[j]]]
        comp = tuple(sigma[s] for s in C.sigma)
        return permute(C.inner, comp)
    if isinstance(C, MixtureCopula):
        return MixtureCopula([(permute(c, sigma), w) for c, w in C.parts])
    return Permuted(C, sigma)


def uniform_cuts(dim: int, n: int | Sequence[int]) -> list[np.ndarray]:
    if isinstance(n, (int, np.integer)):
        n = [int(n)] * dim
    if len(n) != dim:
        raise InputError("need one resolution per axis")
    if min(n) < 1:
        raise InputError(f"grid resolutions must be >= 1, got {list(n)}")
    return [np.linspace(0.0, 1.0, int(m) + 1) for m in n]


def _norm_cuts(dim: int, cuts) -> list[np.ndarray]:
    if isinstance(cuts, (int, np.integer)):
        return uniform_cuts(dim, int(cuts))
    out = []
    for c in cuts:
        c = np.unique(np.asarray(c, dtype=float))
        if c[0] != 0.0 or c[-1] != 1.0 or len(c) < 2:
            raise InputError("each cut list must run from 0 to 1")
        out.append(c)
    if len(out) != dim:
        raise InputError("need one cut list per axis")
    return out


def _refines(cuts: Sequence[np.ndarray], C: Copula) -> bool:
    """Whether C is a board whose cuts are contained in ``cuts``."""
    return isinstance(C, CheckerboardCopula) and all(
        c is t or np.isin(c, t).all() for c, t in zip(C.cuts, cuts)
    )


def _split_cells(C: CheckerboardCopula, cuts: list[np.ndarray]) -> np.ndarray:
    """C's masses on cuts that contain its own: each cell's mass is split by
    width fractions, so empty cells stay exactly 0."""
    masses = C.masses
    for k, (c, t) in enumerate(zip(C.cuts, cuts)):
        parent = np.searchsorted(c, t[:-1], side="right") - 1
        frac = np.diff(t) / np.diff(c)[parent]
        masses = np.take(masses, parent, axis=k) * _along(frac, k, C.dim)
    return masses


def discretize(C: Copula, cuts) -> CheckerboardCopula:
    """Project Q^C onto the checkerboard with the given cuts.

    ``cuts`` may be an integer (uniform grid on every axis) or one cut list
    per axis.  Cell masses are exact box masses, obtained as alternating
    differences of the vertex cdf; the result agrees with C at every grid
    vertex, which ``cdf_grid`` gives as one tensor.  A cell mass below
    -1e-10 means C was not a copula.  A checkerboard onto cuts that contain
    its own is refined on its mass tensor instead, with no cdf round trip.
    The O(cells * eps) rounding that alternating differences accumulate is
    within the board's own construction tolerance, which grows with its
    cell count.
    """
    cuts = _norm_cuts(C.dim, cuts)
    if _refines(cuts, C):
        return CheckerboardCopula(cuts, _split_cells(C, cuts))
    masses = C.cdf_grid(cuts)
    for ax in range(C.dim):
        masses = np.diff(masses, axis=ax)
    if masses.min(initial=0.0) < -1e-10:
        raise ValidationError(
            f"discretization produced cell mass {masses.min():.3e}; "
            "the input violates rectangle nonnegativity"
        )
    return CheckerboardCopula(cuts, np.clip(masses, 0.0, None))


def orthant_masses(C: Copula, cuts: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(L, U) with L[i] = C(v_i) and U[i] = Q^C[[v_i, 1]] at every vertex v_i
    of the grid with the given cuts (one node list per axis, 0 to 1).

    A board on its own cuts, or on a refinement of them, reads both off its
    masses' cumulative sums; on its own cut arrays (the same array on every
    axis) L is its ``vertex_cdf``.  Any other copula is evaluated once, by
    ``cdf_grid`` on the lattice of the vertices off the zero faces (where C
    vanishes), and U is the 2^d-term inclusion-exclusion over those values,
    added or subtracted in corner order as in ``Copula.box_mass_many``.
    """
    d = C.dim
    if _refines(cuts, C):
        own = all(c is t for c, t in zip(C.cuts, cuts))
        masses = C.masses if own else _split_cells(C, cuts)
        L = C.vertex_cdf if own else _cumulative(masses)
        # on the flipped axes, the mass below a vertex is the mass above it
        flip = (slice(None, None, -1),) * d
        return L, _cumulative(masses[flip])[flip]
    inner = [c[1:] for c in cuts]
    L = np.zeros([len(c) for c in cuts])
    L[(slice(1, None),) * d] = C.cdf_grid(inner)
    U = np.zeros(L.shape)
    for mask in _corner_masks(d):  # a 1 takes the corner coordinate 1, a 0 takes v
        view = L[tuple(slice(-1, None) if m else slice(None) for m in mask)]
        if (d - sum(mask)) % 2:
            U -= view
        else:
            U += view
    return L, U


def as_board(C: Copula, resolution: int | None = None) -> CheckerboardCopula | None:
    """The checkerboard that equals C exactly, or None if C is not one.

    A board is returned as it is.  Pi has no cuts of its own: it becomes the
    uniform board with ``resolution`` cells per axis (default the scan
    resolution ``default_resolution(d)``), never one cell, which would have
    no interior vertex to scan.  A mixture of boards is the weighted sum of
    their masses on the union of their cuts, a glue product the outer
    product of its halves' masses (a one-dimensional half is Lebesgue
    measure, as every one-dimensional copula is), and a reflection or a
    permutation of a board is ``reflect`` or ``permute`` of that board.
    Everything else (M, W, segments, Clayton, surgery nodes) gives None.
    """
    if C.dim < 2:
        return None
    return _lower(C, default_resolution(C.dim) if resolution is None else resolution)


def _lower(C: Copula, res: int) -> CheckerboardCopula | None:
    if isinstance(C, CheckerboardCopula):
        return C
    if isinstance(C, ProductCopula):
        return CheckerboardCopula(*_uniform_masses(C.dim, res))
    if isinstance(C, Reflected):
        inner = _lower(C.inner, res)
        return None if inner is None else reflect(inner, C.K)
    if isinstance(C, Permuted):
        inner = _lower(C.inner, res)
        return None if inner is None else permute(inner, C.sigma)
    if isinstance(C, MixtureCopula):
        parts = [(_lower(c, res), w) for c, w in C.parts]
        if any(b is None for b, _ in parts):
            return None
        cuts = [np.unique(np.concatenate(cs)) for cs in zip(*(b.cuts for b, _ in parts))]
        return CheckerboardCopula(cuts, sum(w * _split_cells(b, cuts) for b, w in parts))
    if isinstance(C, GlueProduct):
        halves = [_glue_half(h, res) for h in (C.left, C.right)]
        if any(h is None for h in halves):
            return None
        (cl, ml), (cr, mr) = halves
        return CheckerboardCopula(cl + cr, np.multiply.outer(ml, mr))
    return None


def _uniform_masses(dim: int, res: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Pi on the uniform grid: each cell's mass is the product of its widths."""
    cuts = uniform_cuts(dim, res)
    masses = np.ones(())
    for c in cuts:
        masses = np.multiply.outer(masses, np.diff(c))
    return cuts, masses


def _glue_half(C: Copula, res: int) -> tuple[list[np.ndarray], np.ndarray] | None:
    if C.dim == 1:
        return _uniform_masses(1, res)
    board = _lower(C, res)
    return None if board is None else (list(board.cuts), board.masses)

"""Pointwise and concordance order with witnesses.

C precedes D in the concordance order iff C(u) <= D(u) and
(tau C)(u) <= (tau D)(u) everywhere.  Verdicts are grid certificates: the
evaluation grid is a uniform lattice augmented with both operands' natural
breakpoints, since piecewise-(multi)linear differences attain their extrema
there.  When both operands are boards (``transforms.as_board``) the grid is
their common cut grid, which makes the verdict exact rather than
grid-limited (vertex domination of multilinear interpolants is global
domination); ``OrderResult.exact`` records which kind was obtained.  Where
two boards hold the same cut array on an axis that axis takes the array as
it is, with no merge.

Both halves compare the operands through their differences at the grid's
vertices: C(v) - D(v) for the pointwise half, and
Q^C[[v,1]] - Q^D[[v,1]] = (tau C)(1-v) - (tau D)(1-v) for the survival half,
read on the reflected grid in its own order.  Two boards give both as the
cumulative sums, from below and from above, of one tensor: their mass
difference on the shared cuts (``transforms._masses_on``: each board's
cell masses there, subtracted; ``_board_differences``), which a board
refutation passes in directly.  Other operands take the difference of their
orthant-mass tensors (``transforms.orthant_masses``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EXACT_TOL,
    Copula,
    _check_tolerance,
    _cumulative,
    _cumulative_above,
    _first_max,
    default_resolution,
    grid_axes,
    grid_points,
    merge_cuts,
)
from .errors import DimensionMismatchError
from .transforms import _masses_on, as_board, orthant_masses

__all__ = ["OrderResult", "Relation", "pointwise_leq", "concordance_leq"]


class Relation:
    EQUAL = "equal"
    STRICTLY_BELOW = "strictly_below"
    STRICTLY_ABOVE = "strictly_above"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class OrderResult:
    """Outcome of an order comparison on a grid.

    ``max_violation`` is the largest amount by which the reported relation's
    defining inequalities fail in the opposite direction (<= tol whenever the
    relation is equal/strictly_below/strictly_above); witnesses point at a
    strict gap or at the two-sided violations.
    """

    relation: str
    witness_points: tuple = ()
    max_violation: float = 0.0
    grid_used: str = ""
    exact: bool = False
    tol: float = EXACT_TOL

    @property
    def below_or_equal(self) -> bool:
        return self.relation in (Relation.EQUAL, Relation.STRICTLY_BELOW)

    @property
    def above_or_equal(self) -> bool:
        return self.relation in (Relation.EQUAL, Relation.STRICTLY_ABOVE)


def _classify(diff, cuts, grid_desc, exact, tol) -> OrderResult:
    """The relation of C to D from ``diff`` = C - D on the vertices of
    ``cuts``, at a ``tol`` that must be a finite number >= 0."""
    _check_tolerance(tol, "tol")
    shape = diff.shape
    diff = diff.ravel()
    # a witness is one vertex: its index on each axis, read off the cuts
    point = lambda i: tuple(
        grid_points([c[[j]] for c, j in zip(cuts, np.unravel_index(i, shape))])[0].tolist()
    )
    over = float(diff.max(initial=0.0))  # C above D
    under = float((-diff).max(initial=0.0))  # D above C
    if over <= tol and under <= tol:
        rel, witnesses, viol = Relation.EQUAL, (), max(over, under)
    elif over <= tol:
        rel, witnesses, viol = Relation.STRICTLY_BELOW, (point(_first_max(-diff)),), over
    elif under <= tol:
        rel, witnesses, viol = Relation.STRICTLY_ABOVE, (point(_first_max(diff)),), under
    else:
        rel, viol = Relation.INCOMPARABLE, max(over, under)
        witnesses = (point(_first_max(diff)), point(_first_max(-diff)))
    return OrderResult(rel, witnesses, viol, grid_desc, exact, tol)


def _board_differences(delta: np.ndarray, cuts):
    """``_differences`` of two boards with mass difference ``delta`` on the
    shared ``cuts``: its cumulative sums from the origin and the far corner."""
    desc = f"shared checkerboard grid, sizes {[len(c) for c in cuts]}"
    return _cumulative(delta), _cumulative_above(delta), cuts, desc, True


def _differences(C: Copula, D: Copula, grid: int | None):
    """(lower, upper, cuts, grid description, exact): C(v) - D(v) and
    Q^C[[v,1]] - Q^D[[v,1]] at every vertex v of the grid the operands are
    compared on.

    Two boards (``as_board``, with ``grid=None``) are compared on their
    shared cuts: on their common cut arrays as they are when each axis holds
    the same array, else on the merged cuts.  Both differences are then the
    cumulative sums of one tensor, the boards' mass difference on those
    cuts (``_masses_on``), from the origin and from the far corner.  Other
    operands are compared on a uniform lattice augmented with both
    operands' breakpoints, through the difference of their
    ``orthant_masses``."""
    if C.dim != D.dim:
        raise DimensionMismatchError("operands must share a dimension")
    bc = as_board(C) if grid is None else None
    bd = as_board(D) if bc is not None else None
    if bd is not None:
        cuts = [c if c is d else merge_cuts(c, d) for c, d in zip(bc.cuts, bd.cuts)]
        return _board_differences(_masses_on(bc, cuts) - _masses_on(bd, cuts), cuts)
    res = grid if grid is not None else default_resolution(C.dim)
    cuts = grid_axes([C, D], res)
    lc, uc = orthant_masses(C, cuts)
    ld, ud = orthant_masses(D, cuts)
    desc = f"uniform {res}+breakpoints, sizes {[len(c) for c in cuts]}"
    return lc - ld, uc - ud, cuts, desc, False


def pointwise_leq(
    C: Copula, D: Copula, grid: int | None = None, tol: float = EXACT_TOL
) -> OrderResult:
    """Check C(u) <= D(u) on a grid; exact when both sides are boards
    (``as_board``) compared on their union cut grid, otherwise a
    grid-resolution certificate."""
    lower, _, cuts, desc, exact = _differences(C, D, grid)
    return _classify(lower, cuts, desc, exact, tol)


def _combine(r1: OrderResult, r2: OrderResult, tol: float) -> OrderResult:
    grid = f"cdf[{r1.grid_used}]; survival[{r2.grid_used}]"
    viol = max(r1.max_violation, r2.max_violation)
    rels = {r1.relation, r2.relation} - {Relation.EQUAL}
    if len(rels) > 1 or Relation.INCOMPARABLE in rels:
        rel, witnesses = Relation.INCOMPARABLE, r1.witness_points + r2.witness_points
    elif rels:
        rel = rels.pop()
        witnesses = tuple(w for r in (r1, r2) if r.relation == rel for w in r.witness_points)
    else:
        rel, witnesses = Relation.EQUAL, ()
    return OrderResult(rel, witnesses[:2], viol, grid, r1.exact and r2.exact, tol)


def _concordance(differences, tol: float) -> OrderResult:
    """The concordance order off ``_differences``: (tau C)(w) = Q^C[[1-w, 1]],
    so the upper differences are read on the reflected grid, in its own
    C-order, and witnesses and ties follow that grid."""
    lower, upper, cuts, desc, exact = differences
    flip = (slice(None, None, -1),) * len(cuts)
    reflected = [1.0 - c[::-1] for c in cuts]
    return _combine(
        _classify(lower, cuts, desc, exact, tol),
        _classify(upper[flip], reflected, desc, exact, tol),
        tol,
    )


def concordance_leq(
    C: Copula, D: Copula, grid: int | None = None, tol: float = EXACT_TOL
) -> OrderResult:
    """The concordance order: conjunction of C <= D and tau(C) <= tau(D)
    pointwise.  ``equal`` requires both gaps <= tol everywhere."""
    return _concordance(_differences(C, D, grid), tol)

"""Pointwise and concordance order with witnesses.

C precedes D in the concordance order iff C(u) <= D(u) and
(tau C)(u) <= (tau D)(u) everywhere.  Verdicts are grid certificates: the
evaluation grid is a uniform lattice augmented with both operands' natural
breakpoints, since piecewise-(multi)linear differences attain their extrema
there.  When both operands are boards (``transforms.as_board``) the grid is
their common cut grid, which makes the verdict exact rather than
grid-limited (vertex domination of multilinear interpolants is global
domination); ``OrderResult.exact`` records which kind was obtained.  Where
two boards hold the same cut array on an axis (the surgery board and the
refined input of a refutation hold the same arrays on every axis) that axis
takes the array as it is, with no merge, and a board compared on its own cut
arrays reads C(v) off its ``vertex_cdf``.

Both halves read each operand's orthant-mass tensors at the grid's
vertices (``transforms.orthant_masses``): C(v) for the pointwise half, and
Q^C[[v,1]] = (tau C)(1-v) for the survival half, read on the reflected grid
in its own order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EXACT_TOL,
    Copula,
    _first_max,
    default_resolution,
    grid_axes,
    grid_points,
    merge_cuts,
)
from .errors import DimensionMismatchError
from .transforms import as_board, orthant_masses

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


def _classify(c_vals, d_vals, cuts, grid_desc, exact, tol) -> OrderResult:
    """The relation of two value tensors on the vertices of ``cuts``."""
    diff = (c_vals - d_vals).ravel()
    # a witness is one vertex: its index on each axis, read off the cuts
    point = lambda i: tuple(
        grid_points([c[[j]] for c, j in zip(cuts, np.unravel_index(i, c_vals.shape))])[0].tolist()
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


def _operands(C: Copula, D: Copula, grid: int | None):
    """(C, D, cuts, grid description, exact): the operands and the vertex
    grid they are compared on.  Two boards (``as_board``, with ``grid=None``)
    are compared on their shared cuts: on their common cut arrays as they
    are when each axis holds the same array, else on the merged cuts.
    Other operands are compared on a uniform lattice augmented with both
    operands' breakpoints."""
    if C.dim != D.dim:
        raise DimensionMismatchError("operands must share a dimension")
    bc = as_board(C) if grid is None else None
    bd = as_board(D) if bc is not None else None
    if bd is not None:
        cuts = [c if c is d else merge_cuts(c, d) for c, d in zip(bc.cuts, bd.cuts)]
        return bc, bd, cuts, f"shared checkerboard grid, sizes {[len(c) for c in cuts]}", True
    res = grid if grid is not None else default_resolution(C.dim)
    cuts = grid_axes([C, D], res)
    return C, D, cuts, f"uniform {res}+breakpoints, sizes {[len(c) for c in cuts]}", False


def pointwise_leq(
    C: Copula, D: Copula, grid: int | None = None, tol: float = EXACT_TOL
) -> OrderResult:
    """Check C(u) <= D(u) on a grid; exact when both sides are boards
    (``as_board``) compared on their union cut grid, otherwise a
    grid-resolution certificate."""
    C, D, cuts, desc, exact = _operands(C, D, grid)
    lc, _ = orthant_masses(C, cuts)
    ld, _ = orthant_masses(D, cuts)
    return _classify(lc, ld, cuts, desc, exact, tol)


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


def concordance_leq(
    C: Copula, D: Copula, grid: int | None = None, tol: float = EXACT_TOL
) -> OrderResult:
    """The concordance order: conjunction of C <= D and tau(C) <= tau(D)
    pointwise.  ``equal`` requires both gaps <= tol everywhere."""
    C, D, cuts, desc, exact = _operands(C, D, grid)
    lc, uc = orthant_masses(C, cuts)
    ld, ud = orthant_masses(D, cuts)
    # (tau C)(w) = Q^C[[1-w, 1]]: the upper masses read on the reflected
    # grid, in its own C-order, so witnesses and ties follow that grid
    flip = (slice(None, None, -1),) * len(cuts)
    reflected = [1.0 - c[::-1] for c in cuts]
    return _combine(
        _classify(lc, ld, cuts, desc, exact, tol),
        _classify(uc[flip], ud[flip], reflected, desc, exact, tol),
        tol,
    )

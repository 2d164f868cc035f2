"""Pointwise and concordance order with witnesses.

C precedes D in the concordance order iff C(u) <= D(u) and
(tau C)(u) <= (tau D)(u) everywhere.  Verdicts are grid certificates: the
evaluation grid is a uniform lattice augmented with both operands' natural
breakpoints, since piecewise-(multi)linear differences attain their extrema
there.  When both operands are boards (``transforms.as_board``) they are
refined onto their common cut grid first, which makes the verdict exact
rather than grid-limited (vertex domination of multilinear interpolants is
global domination); ``OrderResult.exact`` records which kind was obtained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Copula,
    default_resolution,
    grid_axes,
    grid_points,
    merge_cuts,
)
from .errors import DimensionMismatchError
from .transforms import as_board, discretize, survival

__all__ = ["OrderResult", "Relation", "pointwise_leq", "concordance_leq"]

DEFAULT_TOL = 1e-9


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
    tol: float = DEFAULT_TOL

    @property
    def below_or_equal(self) -> bool:
        return self.relation in (Relation.EQUAL, Relation.STRICTLY_BELOW)

    @property
    def above_or_equal(self) -> bool:
        return self.relation in (Relation.EQUAL, Relation.STRICTLY_ABOVE)


def _classify(c_vals, d_vals, points, grid_desc, exact, tol) -> OrderResult:
    diff = c_vals - d_vals
    over = float(diff.max(initial=0.0))  # C above D
    under = float((-diff).max(initial=0.0))  # D above C
    if over <= tol and under <= tol:
        return OrderResult(Relation.EQUAL, (), max(over, under), grid_desc, exact, tol)
    if over <= tol:
        w = points[int(np.argmax(-diff))]
        return OrderResult(
            Relation.STRICTLY_BELOW, (tuple(w),), over, grid_desc, exact, tol
        )
    if under <= tol:
        w = points[int(np.argmax(diff))]
        return OrderResult(
            Relation.STRICTLY_ABOVE, (tuple(w),), under, grid_desc, exact, tol
        )
    w1 = points[int(np.argmax(diff))]
    w2 = points[int(np.argmax(-diff))]
    return OrderResult(
        Relation.INCOMPARABLE,
        (tuple(w1), tuple(w2)),
        max(over, under),
        grid_desc,
        exact,
        tol,
    )


def pointwise_leq(
    C: Copula, D: Copula, grid: int | None = None, tol: float = DEFAULT_TOL
) -> OrderResult:
    """Check C(u) <= D(u) on a grid; exact when both sides are boards
    (``as_board``) after refinement to their union cut grid, otherwise a
    grid-resolution certificate."""
    if C.dim != D.dim:
        raise DimensionMismatchError("operands must share a dimension")
    bc = as_board(C) if grid is None else None
    bd = as_board(D) if bc is not None else None
    if bd is not None:
        cuts = [merge_cuts(c, d) for c, d in zip(bc.cuts, bd.cuts)]
        cv = discretize(bc, cuts).vertex_cdf.ravel()
        dv = discretize(bd, cuts).vertex_cdf.ravel()
        desc = f"shared checkerboard grid, sizes {[len(c) for c in cuts]}"
        return _classify(cv, dv, grid_points(cuts), desc, True, tol)
    res = grid if grid is not None else default_resolution(C.dim)
    axes = grid_axes([C, D], res)
    pts = grid_points(axes)
    desc = f"uniform {res}+breakpoints, sizes {[len(a) for a in axes]}"
    return _classify(C.cdf_many(pts), D.cdf_many(pts), pts, desc, False, tol)


def _combine(r1: OrderResult, r2: OrderResult, tol: float) -> OrderResult:
    grid = f"cdf[{r1.grid_used}]; survival[{r2.grid_used}]"
    exact = r1.exact and r2.exact
    viol = max(r1.max_violation, r2.max_violation)
    rels = {r1.relation, r2.relation}
    if Relation.INCOMPARABLE in rels or rels == {
        Relation.STRICTLY_BELOW,
        Relation.STRICTLY_ABOVE,
    }:
        witnesses = (r1.witness_points + r2.witness_points)[:2]
        return OrderResult(Relation.INCOMPARABLE, witnesses, viol, grid, exact, tol)
    if rels == {Relation.EQUAL}:
        return OrderResult(Relation.EQUAL, (), viol, grid, exact, tol)
    rel = (
        Relation.STRICTLY_BELOW
        if Relation.STRICTLY_BELOW in rels
        else Relation.STRICTLY_ABOVE
    )
    witnesses = tuple(
        w
        for r in (r1, r2)
        if r.relation == rel
        for w in r.witness_points
    )[:2]
    return OrderResult(rel, witnesses, viol, grid, exact, tol)


def concordance_leq(
    C: Copula, D: Copula, grid: int | None = None, tol: float = DEFAULT_TOL
) -> OrderResult:
    """The concordance order: conjunction of C <= D and tau(C) <= tau(D)
    pointwise.  ``equal`` requires both gaps <= tol everywhere."""
    if C.dim != D.dim:
        raise DimensionMismatchError("operands must share a dimension")
    r1 = pointwise_leq(C, D, grid, tol)
    r2 = pointwise_leq(survival(C), survival(D), grid, tol)
    return _combine(r1, r2, tol)

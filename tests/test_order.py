"""Pointwise and concordance order checks with witnesses."""

import numpy as np
import pytest

from mincop import (
    DimensionMismatchError,
    Relation,
    concordance_leq,
    discretize,
    make_basic,
    make_glue_product,
    make_mixture,
    make_reflected_upper,
    make_triangle_3d,
    pointwise_leq,
    random_checkerboard,
    shuffle_a,
    shuffle_b,
    survival,
)
from mincop.core import EXACT_TOL, Copula, _first_max, grid_axes, grid_points
from mincop.order import _classify, _combine


def catalog_2d():
    return [
        make_basic("upper_frechet", 2),
        make_basic("lower_frechet_2d", 2),
        make_basic("product", 2),
        make_basic("clayton_extreme", 2),
        shuffle_a(),
        shuffle_b(),
        make_mixture(
            [(make_basic("upper_frechet", 2), 0.5), (make_basic("product", 2), 0.5)]
        ),
    ]


def test_w_below_everything_2d():
    W = make_basic("lower_frechet_2d", 2)
    for C in catalog_2d():
        assert pointwise_leq(W, C).below_or_equal


def test_everything_below_m():
    M2 = make_basic("upper_frechet", 2)
    for C in catalog_2d():
        assert pointwise_leq(C, M2).below_or_equal
    M3 = make_basic("upper_frechet", 3)
    for C in (make_triangle_3d(), make_reflected_upper(3, [1])):
        assert pointwise_leq(C, M3).below_or_equal


def test_shuffles_strictly_ordered_with_witness():
    res = pointwise_leq(shuffle_a(), shuffle_b(), grid=32)
    assert res.relation == Relation.STRICTLY_BELOW
    # the largest gap sits at the centre
    assert res.witness_points[0] == (0.5, 0.5)


def test_concordance_reflexive():
    for C in (shuffle_a(), make_basic("product", 2), random_checkerboard(2, 6, seed=1)):
        assert concordance_leq(C, C).relation == Relation.EQUAL


def test_glue_pair_strictly_below_d4():
    W = make_basic("lower_frechet_2d", 2)
    low = make_glue_product(W, make_basic("product", 2))
    high = make_glue_product(W, make_basic("upper_frechet", 2))
    res = concordance_leq(low, high)
    assert res.relation == Relation.STRICTLY_BELOW


def test_nu1_and_product_incomparable_d3():
    # nu_1(M)(1-eps, m, m) ~ m exceeds Pi there; near 0 the product wins
    res = concordance_leq(make_reflected_upper(3, [0]), make_basic("product", 3))
    assert res.relation == Relation.INCOMPARABLE
    assert len(res.witness_points) == 2


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        pointwise_leq(make_basic("product", 2), make_basic("product", 3))


def test_shared_grid_checkerboards_exact():
    C = random_checkerboard(2, 4, seed=0)
    D = discretize(make_basic("upper_frechet", 2), 6)
    res = pointwise_leq(C, D)
    assert res.exact
    # vertex domination extends to the whole cube for multilinear cdfs
    U = np.random.default_rng(0).random((500, 2))
    if res.below_or_equal:
        assert np.all(C.cdf_many(U) <= D.cdf_many(U) + 1e-9)


def test_antisymmetry_on_shared_grid():
    C = random_checkerboard(2, 5, seed=3)
    D = discretize(C, list(C.cuts))
    assert concordance_leq(C, D).relation == Relation.EQUAL
    assert concordance_leq(D, C).relation == Relation.EQUAL


def test_concordance_symmetric_under_survival():
    # the defining conjunction is symmetric in (C, tau C)
    pairs = [
        (shuffle_a(), shuffle_b()),
        (random_checkerboard(2, 6, seed=4), discretize(make_basic("product", 2), 6)),
    ]
    for C, D in pairs:
        r1 = concordance_leq(C, D)
        r2 = concordance_leq(survival(C), survival(D))
        assert r1.relation == r2.relation


def test_max_violation_reported_for_incomparable():
    res = concordance_leq(make_reflected_upper(3, [0]), make_basic("product", 3))
    assert res.max_violation > 1e-3


def survival_oracle(C, D, grid):
    # the concordance order as it reads by definition: pointwise on the
    # copulas and pointwise on their survival copulas
    return _combine(
        pointwise_leq(C, D, grid), pointwise_leq(survival(C), survival(D), grid), EXACT_TOL
    )


def gap(X, Y, w):
    # the larger of the two defining gaps at w: a witness moves only among
    # points where this is tied
    w = np.asarray([w])
    tau = lambda C: survival(C).cdf_many(w)[0]
    return max(abs(X.cdf_many(w)[0] - Y.cdf_many(w)[0]), abs(tau(X) - tau(Y)))


def order_pairs():
    W, Pi2, M2 = (make_basic(k, 2) for k in ("lower_frechet_2d", "product", "upper_frechet"))
    boards = [
        (random_checkerboard(2, 6, seed=4), discretize(Pi2, 6)),
        (random_checkerboard(3, 4, seed=1), random_checkerboard(3, 5, seed=2)),
        (random_checkerboard(2, 5, seed=3), discretize(random_checkerboard(2, 5, seed=3), 10)),
    ]
    return boards + [
        (shuffle_a(), shuffle_b()),
        (make_glue_product(W, Pi2), make_glue_product(W, M2)),
        (make_basic("clayton_extreme", 3), make_basic("product", 3)),
    ]


@pytest.mark.parametrize("grid", [None, 16])
@pytest.mark.parametrize("pair", range(6))
def test_concordance_reads_the_survival_side_off_the_upper_masses(pair, grid):
    C, D = order_pairs()[pair]
    for X, Y in ((C, D), (D, C)):
        res = concordance_leq(X, Y, grid)
        want = survival_oracle(X, Y, grid)
        assert res.relation == want.relation
        assert abs(res.max_violation - want.max_violation) <= 1e-12
        assert len(res.witness_points) == len(want.witness_points)
        for w, v in zip(res.witness_points, want.witness_points):
            assert abs(gap(X, Y, w) - gap(X, Y, v)) <= 1e-12
        assert res.exact == want.exact


def test_witness_is_the_first_tied_vertex_in_c_order():
    # the survival gap of clayton_extreme 3 below Pi_3 ties at three
    # permutations of one vertex; the witness is the first of them, however
    # the arithmetic rounds the tie
    C, Pi = make_basic("clayton_extreme", 3), make_basic("product", 3)
    result = concordance_leq(C, Pi, grid=16)
    assert result.relation == Relation.STRICTLY_BELOW
    cuts = grid_axes([C, Pi], 16)
    witnesses = []
    for axes, gap in (
        (cuts, lambda pts: Pi.cdf_many(pts) - C.cdf_many(pts)),
        # (tau C)(w) = Q^C[[1-w, 1]], on the reflected grid in its own order
        (
            [1.0 - c[::-1] for c in cuts],
            lambda pts: Pi.cdf_many(pts)
            - Copula._box_mass_lattice(C, (1.0 - pts).T, np.ones_like(pts).T),
        ),
    ):
        pts = grid_points(axes)
        g = gap(pts)
        tied = np.flatnonzero(g >= g.max() - 1e-12)
        witnesses.append(tuple(pts[tied[0]]))
        if len(tied) > 1:
            # a later tie rounded one ulp higher does not move the witness
            nudged = g.copy()
            nudged[tied[-1]] = np.nextafter(g.max(), 1.0)
            shape = [len(a) for a in axes]
            res = _classify(-nudged.reshape(shape), axes, "", False, EXACT_TOL)
            assert res.witness_points == (tuple(pts[tied[0]]),)
    assert result.witness_points == tuple(witnesses)
    assert witnesses[1] == (0.625, 0.6875, 0.6875)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_classify_witnesses_match_the_grid_points_rows(d):
    # a witness is located on the cuts by its flat index; the oracle is the
    # row of the full vertex array that the index names
    rng = np.random.default_rng(d)
    cuts = [np.sort(np.concatenate([[0.0, 1.0], rng.random(n)])) for n in range(2, 2 + d)]
    shape = [len(c) for c in cuts]
    points = grid_points(cuts)
    base = rng.random(shape)
    for c_vals, d_vals, want in (
        (base, base + 0.1 * rng.random(shape), Relation.STRICTLY_BELOW),
        (base + 0.1 * rng.random(shape), base, Relation.STRICTLY_ABOVE),
        (base, rng.random(shape), Relation.INCOMPARABLE),
    ):
        res = _classify(c_vals - d_vals, cuts, "", True, EXACT_TOL)
        assert res.relation == want
        diff = (c_vals - d_vals).ravel()
        first = {
            Relation.STRICTLY_BELOW: [-diff],
            Relation.STRICTLY_ABOVE: [diff],
            Relation.INCOMPARABLE: [diff, -diff],
        }[want]
        assert res.witness_points == tuple(tuple(points[_first_max(g)]) for g in first)

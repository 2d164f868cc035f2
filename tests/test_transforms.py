"""Reflection/permutation/survival group behaviour and discretization."""

import numpy as np
import pytest

from mincop import (
    InputError,
    as_board,
    cdf,
    discretize,
    kendall_tau,
    make_basic,
    make_glue_product,
    make_mixture,
    make_reflected_upper,
    make_triangle_3d,
    permute,
    random_checkerboard,
    reflect,
    shuffle_a,
    survival,
)
from mincop.core import CheckerboardCopula, Permuted, Reflected, default_resolution, grid_points
from mincop.errors import ValidationError


def unit_grid(d, n):
    return grid_points([np.linspace(0, 1, n)] * d)


def agree(C, D, n=17, tol=1e-12):
    U = unit_grid(C.dim, n)
    return float(np.max(np.abs(C.cdf_many(U) - D.cdf_many(U)))) <= tol


def test_reflect_m_gives_w():
    M = make_basic("upper_frechet", 2)
    W = make_basic("lower_frechet_2d", 2)
    assert agree(reflect(M, [0]), W, n=33)


@pytest.mark.parametrize(
    "factory,K",
    [
        (lambda: make_basic("product", 2), [0]),
        (lambda: make_basic("clayton_extreme", 3), [1, 2]),
        (lambda: make_triangle_3d(), [0, 2]),
        (lambda: random_checkerboard(2, 6, seed=0), [0, 1]),
        (lambda: shuffle_a(), [1]),
    ],
)
def test_reflect_is_involution(factory, K):
    C = factory()
    assert agree(reflect(reflect(C, K), K), C, n=13)


def test_reflect_product_invariant():
    Pi = make_basic("product", 3)
    for K in ([0], [1, 2], [0, 1, 2]):
        assert agree(reflect(Pi, K), Pi, n=9)


def test_reflect_group_relation_disjoint_union():
    C = random_checkerboard(3, 4, seed=2)
    left = reflect(C, [0, 2])
    right = reflect(reflect(C, [0]), [2])
    assert agree(left, right, n=9)


def test_reflect_collapses_reflection_nodes():
    Pi = make_basic("clayton_extreme", 3)
    node = reflect(reflect(Pi, [0, 1]), [1, 2])
    # symmetric difference {0, 2}
    from mincop.core import Reflected

    assert isinstance(node, Reflected)
    assert node.K == frozenset({0, 2})


def test_reflect_validates_axes():
    with pytest.raises(InputError):
        reflect(make_basic("product", 2), [5])


def test_permute_min_is_symmetric():
    M = make_basic("upper_frechet", 3)
    assert agree(permute(M, [2, 0, 1]), M, n=9)


def test_permute_glue_rearranges_arguments():
    W = make_basic("lower_frechet_2d", 2)
    M2 = make_basic("upper_frechet", 2)
    E = make_glue_product(W, M2)
    # swap axes 0 and 3
    sigma = [3, 1, 2, 0]
    P = permute(E, sigma)
    u = np.array([0.2, 0.9, 0.4, 0.9])
    assert cdf(P, u) == pytest.approx(cdf(E, u[sigma]), abs=1e-15)


def test_permute_checkerboard_structural():
    C = random_checkerboard(3, 4, seed=3)
    sigma = [1, 2, 0]
    P = permute(C, sigma)
    assert isinstance(P, CheckerboardCopula)
    U = unit_grid(3, 7)
    assert np.max(np.abs(P.cdf_many(U) - C.cdf_many(U[:, sigma]))) < 1e-12


def test_permute_kendall_invariance():
    for seed in range(3):
        C = random_checkerboard(3, 5, seed=seed)
        sigma = np.random.default_rng(seed).permutation(3)
        assert kendall_tau(permute(C, sigma)).value == pytest.approx(
            kendall_tau(C).value, abs=1e-12
        )


def test_permute_rejects_non_bijection():
    with pytest.raises(InputError):
        permute(make_basic("product", 3), [0, 0, 2])


def test_permute_composition_order():
    # non-commuting pair: permuting a permuted node must compose correctly
    from mincop.core import Permuted

    tri = make_triangle_3d()
    s1, s2 = (1, 2, 0), (0, 2, 1)
    inner_first = Permuted(tri, s1)
    composed = permute(inner_first, s2)
    U = unit_grid(3, 7)
    expected = inner_first.cdf_many(U[:, list(s2)])
    assert np.max(np.abs(composed.cdf_many(U) - expected)) < 1e-15
    # and against the hand-composed permutation (2, 1, 0)
    direct = Permuted(tri, (2, 1, 0))
    assert np.max(np.abs(composed.cdf_many(U) - direct.cdf_many(U))) < 1e-15


def test_survival_fixed_points():
    M = make_basic("upper_frechet", 3)
    W = make_basic("lower_frechet_2d", 2)
    A = shuffle_a()
    assert agree(survival(M), M, n=9)
    assert agree(survival(W), W, n=33)
    # shuffle_a's support is symmetric under u -> 1-u
    assert agree(survival(A), A, n=33)


def test_survival_is_involution():
    C = random_checkerboard(2, 8, seed=5)
    assert agree(survival(survival(C)), C, n=17)


# -- discretize ---------------------------------------------------------


def test_discretize_m_two_cells():
    cb = discretize(make_basic("upper_frechet", 2), 2)
    assert np.allclose(cb.masses, [[0.5, 0.0], [0.0, 0.5]])


def test_discretize_product_uniform_cells():
    cb = discretize(make_basic("product", 2), 4)
    assert np.allclose(cb.masses, 1 / 16)


def test_discretize_triangle_margins_exact():
    cb = discretize(make_triangle_3d(), 8)
    assert abs(cb.masses.sum() - 1.0) < 1e-12
    for k in range(3):
        slab = cb.masses.sum(axis=tuple(i for i in range(3) if i != k))
        assert np.max(np.abs(slab - 1 / 8)) < 1e-12


def test_discretize_matches_cdf_at_vertices():
    C = make_triangle_3d()
    cuts = [np.linspace(0, 1, 9)] * 3
    cb = discretize(C, cuts)
    pts = grid_points(cuts)
    assert np.max(np.abs(cb.cdf_many(pts) - C.cdf_many(pts))) < 1e-12


def test_discretize_commutes_with_reflect():
    C = make_triangle_3d()
    n = 8  # symmetric uniform grid
    left = discretize(reflect(C, [1]), n)
    right = reflect(discretize(C, n), [1])
    assert np.max(np.abs(left.masses - right.masses)) < 1e-12


def test_discretize_refinement_is_exact_for_checkerboards():
    C = random_checkerboard(2, 4, seed=9)
    fine = discretize(C, 8)  # refines the 4-grid
    U = unit_grid(2, 33)
    assert np.max(np.abs(fine.cdf_many(U) - C.cdf_many(U))) < 1e-12


def test_discretize_board_onto_superset_splits_cells_exactly():
    C = discretize(make_triangle_3d(), 4)
    rng = np.random.default_rng(0)
    cuts = [np.union1d(c, rng.random(3)) for c in C.cuts]
    fine = discretize(C, cuts)
    parents = np.ix_(
        *[np.searchsorted(c, t[:-1], side="right") - 1 for c, t in zip(C.cuts, cuts)]
    )
    empty = C.masses[parents] == 0.0
    assert empty.any()
    assert np.all(fine.masses[empty] == 0.0)
    # the generic path: alternating differences of the vertex cdf
    vals = C.cdf_many(grid_points(cuts)).reshape([len(c) for c in cuts])
    for ax in range(3):
        vals = np.diff(vals, axis=ax)
    assert np.max(np.abs(fine.masses - vals)) <= 1e-15


def test_discretize_rejects_non_copulas():
    # an affine combination with negative weight has negative rectangle masses
    M = make_basic("upper_frechet", 2, "analytic")
    W = make_basic("lower_frechet_2d", 2, "analytic")

    class NotACopula(type(M)):
        def cdf_many(self, U):
            return 2.0 * W.cdf_many(U) - 1.0 * M.cdf_many(U)

    with pytest.raises(ValidationError):
        discretize(NotACopula(2), 4)


# -- lowering exact boards ------------------------------------------------


def lowerable_copulas():
    Pi2 = make_basic("product", 2)
    mix = make_mixture([(random_checkerboard(2, 6, seed=3), 0.4), (Pi2, 0.6)])
    glue = make_glue_product(random_checkerboard(2, 5, seed=4), make_basic("product", 1))
    out = []
    for C in (Pi2, make_basic("product", 3), mix, glue):
        out += [C, reflect(C, [0]), permute(C, [*range(1, C.dim), 0])]
    # the wrapper nodes themselves, as a spec or a caller may build them
    out += [Reflected(glue, [1, 2]), Permuted(mix, [1, 0])]
    return out


@pytest.mark.parametrize("C", lowerable_copulas())
def test_as_board_equals_the_copula(C):
    board = as_board(C)
    assert isinstance(board, CheckerboardCopula)
    U = np.random.default_rng(7).random((500, C.dim))
    assert np.max(np.abs(board.cdf_many(U) - C.cdf_many(U))) <= 1e-14


def test_as_board_lays_pi_on_the_scan_grid():
    # one cell per axis would have no interior vertex to scan
    for d in (2, 3, 4, 5):
        n = default_resolution(d)
        board = as_board(make_basic("product", d))
        assert board.masses.shape == (n,) * d
        assert np.all(board.masses == n**-d)
    assert as_board(make_basic("product", 3), 4).masses.shape == (4, 4, 4)


def test_as_board_returns_a_board_as_it_is():
    board = random_checkerboard(3, 4, seed=0)
    assert as_board(board) is board


@pytest.mark.parametrize(
    "C",
    [
        make_basic("upper_frechet", 2),
        make_basic("upper_frechet", 3, representation="analytic"),
        make_basic("lower_frechet_2d", 2),
        make_basic("lower_frechet_2d", 2, representation="analytic"),
        make_reflected_upper(3, [0]),
        make_triangle_3d(),
        make_basic("clayton_extreme", 3),
        make_mixture([(make_basic("upper_frechet", 2), 0.5), (make_basic("product", 2), 0.5)]),
        make_glue_product(make_basic("lower_frechet_2d", 2), make_basic("product", 1)),
        make_basic("product", 1),
    ],
)
def test_as_board_none_for_copulas_that_are_not_boards(C):
    assert as_board(C) is None


def contains_node(C, cls):
    if isinstance(C, cls):
        return True
    inner = [getattr(C, "inner", None), getattr(C, "left", None), getattr(C, "right", None)]
    inner += [c for c, _ in getattr(C, "parts", ())]
    return any(contains_node(c, cls) for c in inner if c is not None)


def test_pi_is_invariant_under_reflection_and_permutation():
    Pi = make_basic("product", 4)
    assert reflect(Pi, [0, 2]) is Pi
    assert permute(Pi, (3, 1, 0, 2)) is Pi
    glued = make_glue_product(make_basic("lower_frechet_2d", 2), make_basic("product", 1))
    assert not contains_node(survival(glued), Reflected)


def test_survival_of_a_pi_mixture_has_no_reflected_node():
    M5, Pi5 = make_basic("upper_frechet", 5), make_basic("product", 5)
    C = make_mixture([(M5, 0.5), (Pi5, 0.5)])
    tau = survival(C)
    assert not contains_node(tau, Reflected)
    # the node the survival used to build: Pi wrapped in a total reflection
    old = make_mixture([(reflect(M5, range(5)), 0.5), (Reflected(Pi5, range(5)), 0.5)])
    U = np.random.default_rng(0).random((2000, 5))
    assert float(np.max(np.abs(tau.cdf_many(U) - old.cdf_many(U)))) <= 1e-14

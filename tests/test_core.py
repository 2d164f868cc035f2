"""Representation-level behaviour: evaluation, measure queries, sampling,
validity checking."""

import numpy as np
import pytest

from mincop import (
    CheckerboardCopula,
    DomainError,
    InputError,
    Reflected,
    SegmentCopula,
    UnsupportedRepresentationError,
    ValidationError,
    box_mass,
    cdf,
    make_basic,
    make_glue_product,
    make_mixture,
    make_reflected_upper,
    make_triangle_3d,
    random_checkerboard,
    sample,
    survival_value,
    validate,
)
from mincop.core import (
    MAX_AXIS_NODES,
    Copula,
    Permuted,
    _cumulative,
    default_resolution,
    grid_axes,
    grid_points,
    merge_cuts,
)
from mincop.negdep import RefutationCertificate, refute_minimality
from mincop.transforms import discretize, uniform_cuts


def unit_grid(d, n=9):
    axes = [np.linspace(0, 1, n)] * d
    return grid_points(axes)


# -- cdf ---------------------------------------------------------------


def test_cdf_upper_frechet_is_min():
    M = make_basic("upper_frechet", 2)
    assert cdf(M, [0.3, 0.7]) == pytest.approx(0.3, abs=1e-15)


def test_cdf_clayton_d2_reduces_to_w():
    C = make_basic("clayton_extreme", 2)
    assert cdf(C, [0.6, 0.6]) == pytest.approx(0.2, abs=1e-12)


def test_cdf_triangle_margin_axiom():
    tri = make_triangle_3d()
    assert cdf(tri, [1.0, 1.0, 0.25]) == pytest.approx(0.25, abs=1e-12)


def test_cdf_reflected_upper_equals_w_pointwise():
    # reflection formula applied to M at (0.3, 0.5): M(1,.5) - M(.7,.5) = 0
    refl = Reflected(make_basic("upper_frechet", 2, "analytic"), [0])
    assert cdf(refl, [0.3, 0.5]) == pytest.approx(0.0, abs=1e-15)
    W = make_basic("lower_frechet_2d", 2)
    U = unit_grid(2, 33)
    assert np.max(np.abs(refl.cdf_many(U) - W.cdf_many(U))) < 1e-12


def test_cdf_dimension_mismatch():
    with pytest.raises(InputError):
        cdf(make_basic("upper_frechet", 2), [0.1, 0.2, 0.3])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_frechet_bounds_envelope(d):
    copulas = [
        make_basic("product", d),
        make_basic("clayton_extreme", d),
        make_reflected_upper(d, [0]),
        random_checkerboard(d, 4, seed=d),
    ]
    U = unit_grid(d, 7)
    lower = np.clip(U.sum(axis=1) + 1 - d, 0, None)
    upper = U.min(axis=1)
    for C in copulas:
        vals = C.cdf_many(U)
        assert np.all(vals >= lower - 1e-9)
        assert np.all(vals <= upper + 1e-9)


# -- box masses and survival ------------------------------------------


def test_box_mass_product():
    Pi = make_basic("product", 2)
    assert box_mass(Pi, [0, 0], [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)


def test_box_mass_diagonal_segment():
    M = make_basic("upper_frechet", 2)
    assert box_mass(M, [0.25, 0.5], [0.75, 1.0]) == pytest.approx(0.25, abs=1e-15)


def test_box_mass_antidiagonal_misses_lower_box():
    nu1 = make_reflected_upper(2, [0])
    assert box_mass(nu1, [0, 0], [0.5, 0.4]) == 0.0


def test_box_mass_requires_ordered_corners():
    with pytest.raises(InputError):
        box_mass(make_basic("product", 2), [0.6, 0.1], [0.4, 0.9])


def test_box_mass_zero_corner_equals_cdf():
    for C in (
        make_basic("product", 3),
        make_triangle_3d(),
        random_checkerboard(3, 4, seed=5),
        make_glue_product(make_basic("lower_frechet_2d", 2), make_basic("product", 1)),
    ):
        U = unit_grid(3, 5)
        got = C.box_mass_many(np.zeros_like(U), U)
        assert np.max(np.abs(got - C.cdf_many(U))) < 1e-12


def test_survival_of_upper_frechet_is_itself():
    M = make_basic("upper_frechet", 3)
    for u in ([0.2, 0.5, 0.9], [0.5, 0.5, 0.5]):
        assert survival_value(M, u) == pytest.approx(cdf(M, u), abs=1e-12)


def test_survival_product_independence():
    Pi = make_basic("product", 3)
    assert survival_value(Pi, [0.5, 0.5, 0.5]) == pytest.approx(0.125, abs=1e-15)


def test_survival_w_is_w_in_2d():
    W = make_basic("lower_frechet_2d", 2)
    assert survival_value(W, [0.3, 0.8]) == pytest.approx(0.1, abs=1e-12)


def test_survival_matches_upper_box():
    # Q^C[[u, 1]] = (tau C)(1 - u)
    C = random_checkerboard(2, 6, seed=11)
    U = unit_grid(2, 9)
    lhs = C.survival_many(1.0 - U)
    rhs = C.box_mass_many(U, np.ones_like(U))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# -- sampling ----------------------------------------------------------


def test_sample_upper_frechet_on_diagonal():
    pts = sample(make_basic("upper_frechet", 2), seed=0, n=3)
    assert np.max(np.abs(pts[:, 0] - pts[:, 1])) < 1e-15


def test_sample_product_uniform_margins():
    pts = sample(make_basic("product", 3), seed=1, n=10**5)
    assert np.max(np.abs(pts.mean(axis=0) - 0.5)) < 0.005


def test_sample_triangle_hyperplane():
    pts = sample(make_triangle_3d(), seed=2, n=10**5)
    assert np.max(np.abs(pts.sum(axis=1) - 1.5)) <= 1e-12


def test_sample_deterministic_given_seed():
    C = random_checkerboard(2, 8, seed=3)
    assert np.array_equal(sample(C, seed=7, n=100), sample(C, seed=7, n=100))


def test_sample_unsupported_for_clayton():
    with pytest.raises(UnsupportedRepresentationError):
        sample(make_basic("clayton_extreme", 3), seed=0, n=10)


def test_sample_box_frequencies_match_box_mass():
    C = make_mixture([(make_basic("upper_frechet", 2), 0.5), (make_basic("product", 2), 0.5)])
    n = 10**5
    pts = sample(C, seed=9, n=n)
    lo, hi = np.array([0.2, 0.1]), np.array([0.7, 0.6])
    p = box_mass(C, lo, hi)
    freq = np.mean(np.all((pts >= lo) & (pts <= hi), axis=1))
    assert abs(freq - p) <= 3 * np.sqrt(p * (1 - p) / n) + 1e-12


# -- checkerboard specifics --------------------------------------------


def test_checkerboard_vertex_cdf_is_cumulative_mass():
    C = random_checkerboard(2, 5, seed=4)
    pts = grid_points(list(C.cuts))
    expected = C.vertex_cdf.ravel()
    assert np.max(np.abs(C.cdf_many(pts) - expected)) < 1e-14


def test_vertex_cdf_is_built_on_first_read_and_kept():
    # a board that nobody evaluates never builds its vertex cdf; the first
    # read builds it once, read-only, and later reads return that tensor
    C = random_checkerboard(3, 4, seed=1)
    assert C._vertex_cdf is None
    S = C.vertex_cdf
    assert C.vertex_cdf is S and not S.flags.writeable
    np.testing.assert_array_equal(S, _cumulative(C.masses))


def test_concurrent_first_reads_of_the_vertex_cdf_agree():
    # Monte Carlo workers may read a fresh board's vertex cdf first at once:
    # each computes the same tensor, so every cdf has the one-thread bits
    import sys
    from concurrent.futures import ThreadPoolExecutor

    U = np.random.default_rng(0).random((2000, 3))
    want = random_checkerboard(3, 6, seed=2).cdf_many(U)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            C = random_checkerboard(3, 6, seed=2)
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(C.cdf_many, U) for _ in range(8)]
                results = [f.result(timeout=30) for f in futures]
            for got in results:
                np.testing.assert_array_equal(got, want)
    finally:
        sys.setswitchinterval(interval)


def test_checkerboard_rejects_negative_mass():
    cuts = uniform_cuts(2, 2)
    masses = np.array([[0.6, -0.1], [-0.1, 0.6]])
    with pytest.raises(Exception):
        CheckerboardCopula(cuts, masses)


def test_checkerboard_rejects_bad_margins():
    cuts = uniform_cuts(2, 2)
    with pytest.raises(Exception):
        CheckerboardCopula(cuts, np.array([[0.5, 0.25], [0.25, 0.0]]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: cdf(make_basic("product", 2), [np.nan, 0.5]),
        lambda: CheckerboardCopula(uniform_cuts(2, 2), np.full((2, 2), np.nan)),
        lambda: SegmentCopula([[0.0, 0.0]], [[1.0, 1.0]], [np.nan]),
        lambda: SegmentCopula([[0.0, np.nan]], [[1.0, 1.0]], [1.0]),
        lambda: make_mixture(
            [(make_basic("product", 2), np.nan), (make_basic("product", 2), 1.0)]
        ),
    ],
    ids=["point", "checkerboard", "segment_mass", "segment_endpoint", "mixture"],
)
def test_non_finite_input_rejected(build):
    with pytest.raises(InputError):
        build()


def test_margin_defect_message_shows_tolerance():
    with pytest.raises(ValidationError, match=r"\(tol 1\.0e-12\)"):
        CheckerboardCopula(uniform_cuts(2, 2), np.array([[0.5, 0.0], [0.25, 0.25]]))


def test_segment_system_with_non_uniform_margins_rejected():
    # one segment from (0, 0) to (1/2, 1): axis 0 carries all its mass on
    # [0, 1/2], so its margin cdf misses t by 1/2 at t = 1/2
    with pytest.raises(ValidationError, match=r"axis 0 \(defect 5\.000e-01\)"):
        SegmentCopula([[0.0, 0.0]], [[0.5, 1.0]], [1.0])


def test_merge_cuts_keeps_earlier_lists_points():
    merged = merge_cuts([0.0, 0.5, 1.0], [0.5 - 1e-14, 0.7, 0.7 + 1e-14])
    assert merged.tolist() == [0.0, 0.5, 0.7, 1.0]


def test_grid_axes_thins_a_crowded_axis():
    # 1000 uniform cells give 1001 nodes: every second one is kept, and so
    # are both ends of the cube
    nodes = np.linspace(0.0, 1.0, 1001)
    for axis in grid_axes([make_basic("product", 2)], 1000):
        assert len(axis) <= MAX_AXIS_NODES
        assert axis[0] == 0.0 and axis[-1] == 1.0
        np.testing.assert_array_equal(axis, nodes[::2])


def test_permuted_breakpoints_follow_their_inner_axis():
    # (pi_sigma C)(u) = C(u[sigma]): axis sigma[i] kinks where C's axis i does
    C = discretize(make_basic("product", 3), [[0, 0.5, 1], [0, 0.2, 0.7, 1], [0, 0.9, 1]])
    sigma = [2, 0, 1]
    P = Permuted(C, sigma)
    for i, s in enumerate(sigma):
        np.testing.assert_array_equal(P.breakpoints(s), C.breakpoints(i))


def test_dimension_cap_enforced_and_overridable():
    from mincop.core import get_dimension_cap, set_dimension_cap

    with pytest.raises(InputError):
        make_basic("product", 7)
    cap = get_dimension_cap()
    try:
        set_dimension_cap(7)
        assert make_basic("product", 7).dim == 7
    finally:
        set_dimension_cap(cap)


# -- validate ----------------------------------------------------------


def test_validate_checkerboard_of_m_is_clean():
    rep = validate(discretize(make_basic("upper_frechet", 2), 4))
    assert rep.passed
    assert rep.worst_negative_mass == 0.0
    assert rep.worst_margin_defect < 1e-14


class _CornerCell(Copula):
    """Uniform on [0, 1/2]^2: the board masses [[1,0],[0,0]] on a 2x2 grid,
    which construction would reject, as a plain cdf."""

    dim = 2

    def cdf_many(self, U):
        return np.prod(np.minimum(2.0 * U, 1.0), axis=1)


def test_every_copula_class_defines_one_evaluation_primitive():
    # every query derives from cdf_many or _box_mass_lattice, whichever the
    # class defines; none forwards a query of its own
    import mincop.core as core

    classes = [
        c for c in vars(core).values()
        if isinstance(c, type) and issubclass(c, Copula) and c is not Copula
    ]
    assert len(classes) == 11
    for cls in classes:
        own = set(vars(cls))
        assert len(own & {"cdf_many", "_box_mass_lattice"}) == 1, cls.__name__
        assert not own & {"box_mass_many", "cdf_grid", "box_mass_grid"}, cls.__name__


def test_validate_flags_nonuniform_margins():
    # masses [[1,0],[0,0]]: all mass in one corner cell
    rep = validate(_CornerCell())
    assert not rep.passed
    assert rep.worst_margin_defect == pytest.approx(0.5, abs=1e-12)


def test_validate_board_vertices_match_grid_oracle():
    # a board without a resolution is read off vertex_cdf at its own cuts;
    # the uniform+breakpoints grid is the oracle
    boards = [
        random_checkerboard(d, n, seed)
        for d, n in ((2, 8), (3, 6), (4, 4))
        for seed in range(10)
    ]
    witnesses = [refute_minimality(B) for B in boards]
    boards += [w.copula for w in witnesses if isinstance(w, RefutationCertificate)]
    assert len(boards) > 30
    for B in boards:
        fast, oracle = validate(B), validate(B, default_resolution(B.dim))
        assert fast.grid.startswith("checkerboard vertices")
        assert fast.passed == oracle.passed
        for field in ("worst_negative_mass", "worst_margin_defect", "worst_grounding_defect"):
            assert abs(getattr(fast, field) - getattr(oracle, field)) <= 1e-15


def _unchecked_board(masses):
    """A 2x2 board that skips the constructor's checks."""
    B = object.__new__(CheckerboardCopula)
    B.dim = 2
    B.cuts = (np.array([0.0, 0.5, 1.0]),) * 2
    B.masses = np.asarray(masses, dtype=float)
    B._vertex_cdf = _cumulative(B.masses)
    return B


def test_validate_board_vertices_reject_bad_boards():
    corner = validate(_unchecked_board([[1.0, 0.0], [0.0, 0.0]]))
    assert not corner.passed
    assert corner.worst_margin_defect == 0.5
    assert corner.grid.startswith("checkerboard vertices")
    B = _unchecked_board([[0.6, -0.1], [-0.1, 0.6]])
    vertex, grid = validate(B), validate(B, 8)
    assert not vertex.passed and not grid.passed
    # the vertices see the whole negative cell, a finer grid a fraction of it
    assert vertex.worst_negative_mass == pytest.approx(0.1, abs=1e-15)
    assert grid.worst_negative_mass == pytest.approx(0.00625, abs=1e-15)
    assert grid.grid.startswith("uniform 8+breakpoints")


def test_validate_analytic_nodes_pass():
    for C in (
        make_basic("clayton_extreme", 3),
        make_glue_product(make_basic("lower_frechet_2d", 2), make_basic("upper_frechet", 2)),
    ):
        assert validate(C).passed


def test_lower_frechet_rejected_beyond_2d():
    with pytest.raises(DomainError):
        make_basic("lower_frechet_2d", 3)

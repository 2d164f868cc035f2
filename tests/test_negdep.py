"""Extreme-negative-dependence certificates, the corner surgery and the
descent loop."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from mincop import (
    GFunc,
    HyperplaneSpec,
    RefutationCertificate,
    Relation,
    TauCmCertificate,
    concordance_leq,
    descend,
    discretize,
    find_corner_pair,
    hyperplane_mass,
    kendall_tau,
    make_basic,
    make_glue_product,
    make_mixture,
    make_reflected_upper,
    make_triangle_3d,
    mixture_all_reflections,
    permute,
    random_checkerboard,
    reflect,
    refute_minimality,
    shuffle_a,
    shuffle_b,
    spearman_rho,
    survival,
    tau_cm_certificate,
    tau_cm_defect,
    validate,
)
from mincop.core import (
    CheckerboardCopula,
    ClaytonExtreme,
    Copula,
    GlueProduct,
    LowerFrechet2d,
    MixtureCopula,
    Permuted,
    Reflected,
    RefutedCopula,
    SegmentCopula,
    _first_max,
    default_resolution,
    grid_axes,
    grid_points,
)
import mincop.negdep as negdep
import mincop.order as order
from mincop.errors import InputError, RefuterInternalError, UnsupportedRepresentationError
from mincop.negdep import (
    BISECT_TOL,
    _bisect_monotone,
    _corner_pair,
    _refined_surgery,
    _scan,
    _witness_gap,
)
from mincop.reference_values import _hyperplane_certified_catalog
from mincop.serialize import to_spec


def affine(alpha=1.0):
    return GFunc("affine", alpha=alpha)


# -- tau-CM defect -------------------------------------------------------


def test_defect_w_is_zero():
    defect, _, _ = tau_cm_defect(make_basic("lower_frechet_2d", 2))
    assert defect == 0.0


def test_defect_product_quarter_at_centre():
    defect, worst, _ = tau_cm_defect(make_basic("product", 2))
    assert defect == pytest.approx(0.25, abs=1e-12)
    assert worst == (0.5, 0.5)


def test_defect_clayton_extreme_below_tolerance():
    defect, _, _ = tau_cm_defect(make_basic("clayton_extreme", 3))
    assert defect <= 1e-9


def test_defect_glue_w_m_is_zero_d4():
    W = make_basic("lower_frechet_2d", 2)
    glue = make_glue_product(W, make_basic("upper_frechet", 2))
    defect, _, _ = tau_cm_defect(glue)
    assert defect <= 1e-9


def test_defect_symmetric_under_survival():
    for C in (
        make_basic("product", 2),
        random_checkerboard(2, 6, seed=0),
        make_mixture(
            [(make_basic("upper_frechet", 2), 0.5), (make_basic("product", 2), 0.5)]
        ),
    ):
        d1, _, _ = tau_cm_defect(C)
        d2, _, _ = tau_cm_defect(survival(C))
        assert d1 == pytest.approx(d2, abs=1e-9)


# -- hyperplane mass -----------------------------------------------------


def test_hyperplane_nu1_exact():
    nu1 = make_reflected_upper(3, [0])
    spec = HyperplaneSpec((0, 1, 2), (affine(1.0), affine(0.5), affine(0.5)), 1.0)
    assert hyperplane_mass(nu1, spec, eps=0.0) == 1.0


def test_hyperplane_triangle_exact():
    spec = HyperplaneSpec((0, 1, 2), (affine(), affine(), affine()), 1.5)
    assert hyperplane_mass(make_triangle_3d(), spec, eps=0.0) == 1.0


def test_hyperplane_mixture_all_reflections_zero():
    from mincop import mixture_all_reflections

    C = mixture_all_reflections(3)
    for c in (0.5, 1.0, 1.5, 2.0):
        spec = HyperplaneSpec((0, 1, 2), (affine(), affine(), affine()), c)
        assert hyperplane_mass(C, spec, eps=1e-6) == 0.0


def test_hyperplane_power_transform():
    # extreme Clayton support: sum u^{1/(d-1)} = d-1; check on a discretized
    # board the band lower bound grows toward 1 as eps grows
    C = discretize(make_basic("clayton_extreme", 3), 24)
    g = tuple(GFunc("power", gamma=0.5) for _ in range(3))
    spec = lambda eps: HyperplaneSpec((0, 1, 2), g, 2.0)
    tight = hyperplane_mass(C, spec(0.0), eps=0.05)
    loose = hyperplane_mass(C, spec(0.0), eps=0.4)
    assert 0.0 <= tight <= loose <= 1.0
    assert loose > 0.5


def test_hyperplane_glue_concatenates_constants():
    W = make_basic("lower_frechet_2d", 2)
    glue = make_glue_product(W, make_basic("lower_frechet_2d", 2))
    spec = HyperplaneSpec((0, 1, 2, 3), tuple(affine() for _ in range(4)), 2.0)
    assert hyperplane_mass(glue, spec, eps=0.0) == 1.0
    off = HyperplaneSpec((0, 1, 2, 3), tuple(affine() for _ in range(4)), 1.5)
    assert hyperplane_mass(glue, off, eps=0.0) == 0.0


def test_hyperplane_glue_nonconstant_part_falls_back_to_sampling():
    # the W block is countermonotonic but the independent factor spreads the
    # full-coordinate sum over an interval, so every level set is null
    W = make_basic("lower_frechet_2d", 2)
    glue = make_glue_product(W, make_basic("product", 1))
    spec = HyperplaneSpec((0, 1, 2), tuple(affine() for _ in range(3)), 1.5)
    assert hyperplane_mass(glue, spec, eps=1e-6) <= 1e-4


def test_hyperplane_monte_carlo_fallback():
    Pi = make_basic("product", 2)
    spec = HyperplaneSpec((0, 1), (affine(), affine()), 1.0)
    assert hyperplane_mass(Pi, spec, eps=0.05) == pytest.approx(0.0975, abs=5e-3)


def test_hyperplane_mixture_weighs_its_parts():
    # W's segment lies on u1 + u2 = 1, M's diagonal meets it in one point
    W, M = make_basic("lower_frechet_2d", 2), make_basic("upper_frechet", 2)
    C = MixtureCopula([(W, 0.25), (M, 0.75)])
    spec = HyperplaneSpec((0, 1), (affine(), affine()), 1.0)
    assert hyperplane_mass(C, spec, eps=0.0) == 0.25


@pytest.mark.parametrize("left_first", [True, False])
def test_hyperplane_glue_with_every_axis_in_one_half(left_first):
    # the band lives in one half: the other factor's coordinates are free
    W, M = make_basic("lower_frechet_2d", 2), make_basic("upper_frechet", 2)
    glue = GlueProduct(W, M) if left_first else GlueProduct(M, W)
    K = (0, 1) if left_first else (2, 3)
    assert hyperplane_mass(glue, HyperplaneSpec(K, (affine(), affine()), 1.0)) == 1.0
    assert hyperplane_mass(glue, HyperplaneSpec(K, (affine(), affine()), 0.5)) == 0.0


def test_hyperplane_mass_without_a_path_raises():
    # no segments, no board, no mixture or glue structure and no sampler
    spec = HyperplaneSpec((0, 1, 2), tuple(affine() for _ in range(3)), 2.0)
    with pytest.raises(UnsupportedRepresentationError, match="samplable"):
        hyperplane_mass(ClaytonExtreme(3), spec)


# -- corner pairs ----------------------------------------------------------


def test_corner_pair_product():
    pair = find_corner_pair(make_basic("product", 2))
    assert np.allclose(pair.a, [0.5, 0.5])
    assert np.allclose(pair.b, [0.5, 0.5])
    assert pair.p == pytest.approx(0.25, abs=1e-12)


def test_corner_pair_upper_frechet():
    pair = find_corner_pair(make_basic("upper_frechet", 2))
    assert np.allclose(pair.a, [0.5, 0.5])
    assert pair.p == pytest.approx(0.5, abs=1e-12)


def test_corner_pair_none_for_minimal():
    assert find_corner_pair(make_reflected_upper(3, [0])) is None


def test_corner_pair_masses_match_p():
    for seed in range(4):
        C = random_checkerboard(2, 8, seed=seed)
        pair = find_corner_pair(C)
        d = C.dim
        assert C.box_mass(np.zeros(d), pair.a) == pytest.approx(pair.p, abs=1e-9)
        assert C.box_mass(pair.b, np.ones(d)) == pytest.approx(pair.p, abs=1e-9)
        assert np.all(pair.a <= pair.b + 1e-12)
        assert 0 < pair.p <= 0.5 + 1e-12


def test_corner_pair_bisects_upper_corner_on_skewed_board():
    # C(u) > Q[[u,1]] at the worst point: b stays at u, a comes from the
    # ray solve alpha -> C(alpha u)
    board = skewed_board()
    _, u, _ = tau_cm_defect(board)
    pair = find_corner_pair(board)
    assert np.allclose(pair.b, u)
    assert not np.allclose(pair.a, u)
    assert board.cdf(pair.a) == pytest.approx(pair.p, abs=1e-9)
    cert = refute_minimality(board)
    assert isinstance(cert, RefutationCertificate)


def test_corner_pair_bisects_lower_corner_in_3d():
    # random d=3 boards have C(u) < Q[[u,1]] at the worst vertex: a stays,
    # b comes from the survival-side ray solve; the off-grid corner still
    # verifies exactly after grid refinement
    board = random_checkerboard(3, 6, seed=0)
    _, u, _ = tau_cm_defect(board)
    pair = find_corner_pair(board)
    assert np.allclose(pair.a, u)
    assert not np.allclose(pair.b, u)
    cert = refute_minimality(board)
    assert isinstance(cert, RefutationCertificate)
    assert cert.order_check.exact


# -- board-native scan and ray solve against the interpolated oracle ---------


def scan_points(C, grid=None):
    # a board's own interior vertices, or the interior of a uniform lattice
    # augmented with the copula's breakpoints
    if grid is None and isinstance(C, CheckerboardCopula):
        axes = C.cuts
    else:
        axes = grid_axes([C], grid if grid is not None else default_resolution(C.dim))
    return grid_points([a[(a > 0) & (a < 1)] for a in axes])


def oracle_scan(C, grid=None):
    # the interpolated vertex scan, with the same tie-break as the tensor scan;
    # the generic inclusion-exclusion, so that no box-mass override is its own
    # oracle
    pts = scan_points(C, grid)
    lower = C.cdf_many(pts)
    upper = Copula._box_mass_lattice(C, pts.T, np.ones_like(pts).T)
    i = _first_max(np.minimum(lower, upper))
    return min(lower[i], upper[i]), tuple(pts[i]), lower[i], upper[i]


def oracle_pair(C):
    # the same corner choice as find_corner_pair, with bisection on the ray
    _, u, cu, su = oracle_scan(C)
    u = np.asarray(u)
    if su <= cu:
        if abs(cu - su) <= BISECT_TOL:
            return u, u, su
        return _bisect_monotone(lambda t: C.cdf(t * u), su, 0.0, 1.0) * u, u, su
    if abs(su - cu) <= BISECT_TOL:
        return u, u, cu
    ones = np.ones(C.dim)
    beta = _bisect_monotone(lambda t: C.box_mass(1.0 - t * (1.0 - u), ones), cu, 0.0, 1.0)
    return u, 1.0 - beta * (1.0 - u), cu


def skewed_board():
    # C(u) > Q[[u,1]] at the worst vertex, so a comes from the ray solve and
    # lands off the grid
    mix = make_mixture(
        [(make_basic("upper_frechet", 2), 0.3), (make_basic("product", 2), 0.7)]
    )
    return discretize(
        mix, [np.array([0, 0.2, 0.55, 0.8, 1.0]), np.array([0, 0.35, 0.6, 0.9, 1.0])]
    )


ORACLE_BOARDS = [
    random_checkerboard(d, n, seed=s)
    for d, n in ((2, 8), (2, 16), (3, 6), (3, 8), (4, 4), (4, 5))
    for s in range(5)
] + [skewed_board()]


def test_board_scan_and_ray_match_the_oracle():
    solved = {"lower": 0, "survival": 0}
    for board in ORACLE_BOARDS:
        defect, worst, _ = tau_cm_defect(board)
        o_defect, o_worst, _, _ = oracle_scan(board)
        assert worst == o_worst
        assert abs(defect - o_defect) <= 1e-15
        pair = find_corner_pair(board)
        a, b, p = oracle_pair(board)
        assert np.max(np.abs(pair.a - a)) <= 1e-12
        assert np.max(np.abs(pair.b - b)) <= 1e-12
        assert abs(pair.p - p) <= 1e-15
        if not np.array_equal(pair.a, pair.b):
            solved["lower" if np.array_equal(pair.b, worst) else "survival"] += 1
    # both sides of the ray solve are exercised
    assert min(solved.values()) >= 3


def test_board_ray_needs_no_root_finder(monkeypatch):
    # the crossing is read off the fitted cell polynomial by halving, so the
    # pairs match the bisection oracle with the eigenvalue root finder gone
    def unavailable(*args, **kw):
        raise AssertionError("root finder called")

    monkeypatch.setattr(np, "roots", unavailable)
    monkeypatch.setattr(np.linalg, "eigvals", unavailable)
    for board in ORACLE_BOARDS:
        pair = find_corner_pair(board)
        a, b, p = oracle_pair(board)
        assert np.max(np.abs(pair.a - a)) <= 1e-12
        assert np.max(np.abs(pair.b - b)) <= 1e-12
        assert abs(pair.p - p) <= 1e-15


NON_BOARD_SCANS = [
    (lambda: make_basic("upper_frechet", 3), None),
    (make_triangle_3d, None),
    (lambda: make_reflected_upper(4, [0, 2]), None),
    (shuffle_a, None),
    (lambda: make_basic("clayton_extreme", 3), None),
    (lambda: make_basic("clayton_extreme", 4), None),
    (lambda: refute_minimality(make_basic("upper_frechet", 3)).copula, None),
    (lambda: make_basic("product", 3), 16),
    (lambda: random_checkerboard(3, 6, seed=1), 16),
]


@pytest.mark.parametrize("make, grid", NON_BOARD_SCANS)
def test_orthant_scan_matches_the_interpolated_oracle(make, grid):
    C = make()
    defect, worst, _, cu, su = _scan(C, grid)
    o_defect, o_worst, o_cu, o_su = oracle_scan(C, grid)
    assert abs(defect - o_defect) <= 1e-12
    assert abs(cu - o_cu) <= 1e-12
    assert abs(su - o_su) <= 1e-12
    if o_defect > 1e-9:
        assert worst == o_worst


def test_board_ray_crossing_on_a_breakpoint():
    # the survival ray from 1-u = (3/4, 3/4) reaches p = 1/8 exactly at the
    # breakpoint beta = 2/3, so b lands on the vertex (1/2, 1/2)
    masses = np.array([[1, 0, 0, 1], [0, 0, 1, 1], [0, 2, 0, 0], [1, 0, 1, 0]]) / 8
    board = CheckerboardCopula([np.linspace(0, 1, 5)] * 2, masses)
    pair = find_corner_pair(board)
    assert np.array_equal(pair.a, [0.25, 0.25])
    assert np.array_equal(pair.b, [0.5, 0.5])
    assert pair.p == 0.125
    a, b, p = oracle_pair(board)
    assert np.max(np.abs(pair.b - b)) <= 1e-12


def test_board_scan_breaks_an_exact_tie_lexicographically():
    # two vertices tie at 7/64; the tensor and interpolated scans round the
    # upper masses differently, and both must still pick the first vertex
    board = random_checkerboard(3, 8, seed=6)
    defect, worst, _ = tau_cm_defect(board)
    assert defect == pytest.approx(0.109375, abs=1e-15)
    assert worst == (0.375, 0.625, 0.5)
    assert oracle_scan(board)[1] == worst


def test_board_corner_pair_cdf_calls_are_bounded(monkeypatch):
    # two cdf calls solve the ray and 2 * 2^d verify the corners, however
    # deep a bisection would have gone
    calls = []
    cdf_many = CheckerboardCopula.cdf_many
    monkeypatch.setattr(
        CheckerboardCopula, "cdf_many", lambda self, U: calls.append(len(U)) or cdf_many(self, U)
    )
    for board in (random_checkerboard(3, 16, seed=0), skewed_board()):
        calls.clear()
        pair = find_corner_pair(board)
        assert not np.array_equal(pair.a, pair.b)
        assert len(calls) <= 2 + 2 * 2**board.dim


# -- the refuter ----------------------------------------------------------


def test_refute_product_yields_certificate():
    cert = refute_minimality(make_basic("product", 2))
    assert isinstance(cert, RefutationCertificate)
    assert cert.order_check.relation == Relation.STRICTLY_BELOW
    assert cert.rho_drop > 0
    assert cert.passed


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_refute_product_is_a_board_refutation(d):
    # Pi is refuted as the uniform board at the scan resolution; a one-cell
    # board has no interior vertex and would give a tau-CM certificate
    Pi = make_basic("product", d)
    cert = refute_minimality(Pi)
    assert isinstance(cert, RefutationCertificate)
    assert cert.passed
    assert isinstance(cert.copula, CheckerboardCopula)
    # oracle: the interpolated scan and bisection on the same grid, and the
    # surgery node on Pi itself
    pair = find_corner_pair(Pi, grid=default_resolution(d))
    node = RefutedCopula(Pi, pair.a, pair.b, pair.p)
    rho_drop = spearman_rho(Pi).value - spearman_rho(node).value
    assert np.max(np.abs(cert.a - node.a)) <= 1e-12
    assert np.max(np.abs(cert.b - node.b)) <= 1e-12
    assert abs(cert.p - node.p) <= 1e-12
    assert abs(cert.rho_drop - rho_drop) <= 1e-12
    D = cert.copula
    assert np.max(np.abs(D.masses - discretize(node, D.cuts).masses)) <= 1e-12


M5 = make_basic("upper_frechet", 5)
PI5 = make_basic("product", 5)


@pytest.mark.parametrize(
    "C, p, rho_drop",
    [
        (PI5, 1 / 32, 0.03605769230769231),
        (M5, 0.5, 0.8384615384615383),
        (make_mixture([(M5, 0.5), (PI5, 0.5)]), 0.265625, 0.4372596153846152),
    ],
    ids=["product", "upper_frechet", "mixture"],
)
def test_refute_d5_refutes_at_the_centre(C, p, rho_drop):
    # d = 5 scans at default_resolution(5) = 8 cells per axis; the corners,
    # p and rho drop are those the 16-cell scan gave
    cert = refute_minimality(C)
    assert isinstance(cert, RefutationCertificate)
    assert cert.passed
    assert np.all(cert.a == 0.5) and np.all(cert.b == 0.5)
    assert cert.p == pytest.approx(p, abs=1e-12)
    assert cert.rho_drop == pytest.approx(rho_drop, abs=1e-12)


@pytest.mark.parametrize(
    "C",
    [make_basic("clayton_extreme", 5), make_reflected_upper(5, [0, 1])],
    ids=["clayton_extreme", "reflected_upper"],
)
def test_refute_d5_tau_cm(C):
    cert = refute_minimality(C)
    assert isinstance(cert, TauCmCertificate)
    assert cert.passed


def test_refute_upper_frechet_yields_block_structure():
    # surgery on M at a = b = centre removes the whole diagonal and glues the
    # corner marginals independently: two uniform off-diagonal blocks on
    # shuffle_A's squares (the full board is checked in acceptance
    # criterion 09, test_criterion_09_surgery_on_m_matches_shuffle_a)
    cert = refute_minimality(make_basic("upper_frechet", 2))
    D = cert.copula
    assert D.cdf([0.25, 0.75]) == pytest.approx(2 * 0.25 * 0.25, abs=1e-12)
    assert D.cdf([0.75, 0.25]) == pytest.approx(2 * 0.25 * 0.25, abs=1e-12)
    assert D.cdf([0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)
    assert cert.rho_drop == pytest.approx(1.75, abs=1e-9)


def test_refute_minimal_examples_return_tau_cm():
    minimal = [
        make_basic("lower_frechet_2d", 2),
        make_reflected_upper(3, [0]),
        make_reflected_upper(3, [0, 1]),
        make_basic("clayton_extreme", 3),
        make_triangle_3d(),
        make_glue_product(make_basic("lower_frechet_2d", 2), make_basic("product", 1)),
    ]
    for C in minimal:
        cert = refute_minimality(C)
        assert isinstance(cert, TauCmCertificate)
        assert cert.passed


def test_refute_tau_cm_iff_defect_below_tol():
    # one-sidedness: the refuter declines exactly when the defect is small
    for C in (
        make_basic("product", 3),
        random_checkerboard(3, 6, seed=2),
        make_triangle_3d(),
    ):
        defect, _, _ = tau_cm_defect(C)
        cert = refute_minimality(C)
        assert isinstance(cert, TauCmCertificate) == (defect <= 1e-9)


@pytest.mark.parametrize(
    "make, tau_cm, scans",
    [
        # the support proves the triangle and W tau-CM with no scan
        (make_triangle_3d, True, 0),
        (lambda: make_basic("lower_frechet_2d", 2), True, 0),
        (lambda: make_basic("upper_frechet", 3), False, 1),
        (lambda: random_checkerboard(2, 8, seed=3), False, 1),
    ],
    ids=["triangle", "W", "M_3", "board"],
)
def test_refute_scans_once(monkeypatch, make, tau_cm, scans):
    C = make()
    calls = []
    monkeypatch.setattr(negdep, "_scan", lambda *args: calls.append(1) or _scan(*args))
    cert = refute_minimality(C)
    assert len(calls) == scans
    assert isinstance(cert, TauCmCertificate) == tau_cm
    if tau_cm:
        assert cert == tau_cm_certificate(C)


# -- tau-CM read off the support --------------------------------------------

# two segments whose comparable pair, inside the short increasing one, lies
# between the lines of the default 32-cell scan: not tau-CM (tau = -0.9998),
# and at u = (0.995, 0.005) both corner boxes carry 0.005
HIDDEN_PAIR = SegmentCopula(
    [[0.0, 1.0], [0.99, 0.0]], [[0.99, 0.01], [1.0, 0.01]], [0.99, 0.01]
)


def reflection_mixture(seed):
    # a few nu_K(M) pieces with random weights (no pair), and M as one more
    # piece at odd seeds (a pair along its diagonal)
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    Ks = [K for r in range(1, d) for K in itertools.combinations(range(d), r)]
    chosen = rng.choice(len(Ks), size=min(len(Ks), int(rng.integers(1, 4))), replace=False)
    pieces = [make_reflected_upper(d, Ks[i]) for i in chosen]
    if seed % 2:
        pieces.append(make_basic("upper_frechet", d))
    return make_mixture(list(zip(pieces, rng.dirichlet(np.ones(len(pieces))))))


SUPPORT_SEGMENTS = {
    "M_2": lambda: make_basic("upper_frechet", 2),
    "M_3": lambda: make_basic("upper_frechet", 3),
    "W": lambda: make_basic("lower_frechet_2d", 2),
    "triangle": make_triangle_3d,
    "shuffle_a": shuffle_a,
    "shuffle_b": shuffle_b,
    "mar3": lambda: mixture_all_reflections(3),
    "mar4": lambda: mixture_all_reflections(4),
    "hidden_pair": lambda: HIDDEN_PAIR,
    # the pair x on W, y on M peaks inside an edge: t = 1/2, s = 1
    "mixture(M, W)": lambda: make_mixture(
        [(make_basic("upper_frechet", 2), 0.5), (make_basic("lower_frechet_2d", 2), 0.5)]
    ),
    **{
        f"K-CM {name}": (lambda C=C: C)
        for name, C, _ in _hyperplane_certified_catalog()
        if isinstance(C, SegmentCopula)
    },
    **{f"nu_K(M) mixture {s}": (lambda s=s: reflection_mixture(s)) for s in range(8)},
}

SUPPORT_RULES = {
    # nodes over segment copulas, as parse_spec builds them
    "W analytic": LowerFrechet2d,
    "Permuted(triangle)": lambda: Permuted(make_triangle_3d(), (2, 0, 1)),
    "Permuted(M_3)": lambda: Permuted(make_basic("upper_frechet", 3), (1, 2, 0)),
    "Permuted(glue(hidden_pair, Pi_1))": lambda: Permuted(
        make_glue_product(HIDDEN_PAIR, make_basic("product", 1)), (2, 0, 1)
    ),
    "Reflected(M_3, {0})": lambda: Reflected(make_basic("upper_frechet", 3), [0]),
    "Reflected(shuffle_a, {1})": lambda: Reflected(shuffle_a(), [1]),
    "Reflected(triangle, all)": lambda: Reflected(make_triangle_3d(), range(3)),
    **{
        f"K-CM {name}": (lambda C=C: C)
        for name, C, _ in _hyperplane_certified_catalog()
        if not isinstance(C, SegmentCopula)
    },
    "clayton_extreme_3": lambda: make_basic("clayton_extreme", 3),
    "clayton_extreme_4": lambda: make_basic("clayton_extreme", 4),
    "glue(W, board)": lambda: make_glue_product(
        make_basic("lower_frechet_2d", 2), random_checkerboard(2, 4, seed=1)
    ),
    "glue(M_2, Pi_1)": lambda: make_glue_product(
        make_basic("upper_frechet", 2), make_basic("product", 1)
    ),
    "glue(hidden_pair, board)": lambda: make_glue_product(
        HIDDEN_PAIR, random_checkerboard(2, 4, seed=1)
    ),
    "glue(Pi_2, hidden_pair)": lambda: make_glue_product(
        make_basic("product", 2), HIDDEN_PAIR
    ),
}


def fine_grid_slack(C, m=201):
    # the slack min_k (y_k - x_k) of every segment pair at every (t, s) of an
    # m x m grid, and the most it can miss the maximum by: half a grid step
    # in t and in s, each times the largest |dx_k/dt|
    t = np.linspace(0.0, 1.0, m)
    X = C.starts[:, None, :] + t[:, None] * C.dirs[:, None, :]
    best = max(
        (X[:, None, :, :] - X[i][None, :, None, :]).min(axis=3).max()
        for i in range(len(C.masses))
    )
    return best, np.abs(C.dirs).max() / (m - 1)


def random_segments(seed):
    # segments in general position, whose pairs peak at edge and interior
    # crossings too; a measure with other margins than a copula's, which the
    # slack does not read
    rng = np.random.default_rng(seed)
    d = 2 + seed % 3
    n = 4
    return SegmentCopula(rng.random((n, d)), rng.random((n, d)), np.full(n, 1 / n), _skip_margin_check=True)


@pytest.mark.parametrize("name", list(SUPPORT_SEGMENTS) + [f"random {s}" for s in range(12)])
def test_segment_slack_is_the_fine_grid_maximum(name):
    if name.startswith("random"):
        C = random_segments(int(name.split()[1]))
    else:
        C = SUPPORT_SEGMENTS[name]()
    slack, x, y = negdep._segment_slack(C)
    best, miss = fine_grid_slack(C)
    assert best - 1e-12 <= slack <= best + miss + 1e-12
    # the witness attains the slack
    assert np.min(y - x) == pytest.approx(slack, abs=1e-12)


@pytest.mark.parametrize("name", list(SUPPORT_SEGMENTS) + list(SUPPORT_RULES))
def test_support_verdict_agrees_with_the_corner_masses(name):
    C = {**SUPPORT_SEGMENTS, **SUPPORT_RULES}[name]()
    slack, x, y = negdep._support_slack(C)
    if slack <= 0:
        # no pair: no scan point has two loaded corners either
        assert _scan(C, None)[0] <= 1e-9
        assert tau_cm_certificate(C).exact
        return
    # a pair: both corner boxes at its midpoint carry mass, read by the cdf
    # and by the generic inclusion-exclusion over it
    u = 0.5 * (x + y)
    assert C.cdf_many(u[None])[0] > 0
    assert Copula._box_mass_lattice(C, u[:, None], np.ones((C.dim, 1)))[0] > 0
    assert not tau_cm_certificate(C).exact


@pytest.mark.parametrize(
    "C",
    [
        HIDDEN_PAIR,
        make_glue_product(HIDDEN_PAIR, make_basic("product", 1)),
        make_glue_product(make_basic("product", 2), HIDDEN_PAIR),
        Permuted(make_glue_product(HIDDEN_PAIR, make_basic("product", 1)), (2, 0, 1)),
    ],
    ids=["segments", "glue(C, Pi_1)", "glue(Pi_2, C)", "permuted glue(C, Pi_1)"],
)
def test_refute_finds_the_pair_between_grid_lines(C):
    # an explicit grid keeps the grid scan, which misses the pair
    assert tau_cm_defect(C, grid=default_resolution(C.dim))[0] <= 1e-9
    defect, worst, desc = tau_cm_defect(C)
    assert defect > 1e-9 and "+support pair" in desc
    cert = tau_cm_certificate(C)
    assert not cert.passed and not cert.exact
    assert find_corner_pair(C).p == pytest.approx(defect, abs=1e-12)
    refuted = refute_minimality(C)
    assert isinstance(refuted, RefutationCertificate) and refuted.passed
    assert refuted.order_check.relation == Relation.STRICTLY_BELOW


def test_support_slack_maps_a_pair_through_sigma():
    # the permuted node's pair is the permuted segment copula's, its
    # coordinates moved by sigma
    inner = make_glue_product(HIDDEN_PAIR, make_basic("product", 1))
    slack, x, y = negdep._support_slack(inner)
    sigma = (2, 0, 1)
    got = negdep._support_slack(Permuted(inner, sigma))
    assert got[0] == slack
    for inner_point, point in zip((x, y), got[1:]):
        np.testing.assert_array_equal(point[list(sigma)], inner_point)


@pytest.mark.parametrize(
    "C",
    [LowerFrechet2d(), Permuted(make_triangle_3d(), (2, 0, 1)), Reflected(make_triangle_3d(), range(3))],
    ids=["W analytic", "Permuted(triangle)", "Reflected(triangle)"],
)
def test_support_decides_nodes_over_segments_exactly(C):
    cert = tau_cm_certificate(C)
    assert cert.exact and cert.passed
    assert cert.grid == negdep.SUPPORT_TEST and cert.defect == 0.0
    assert tau_cm_defect(C) == (0.0, (), negdep.SUPPORT_TEST)
    assert isinstance(refute_minimality(C), TauCmCertificate)


def test_refute_the_two_segment_spec():
    cert = refute_minimality(HIDDEN_PAIR)
    assert isinstance(cert, RefutationCertificate) and cert.passed
    assert np.allclose(cert.a, [0.995, 0.005], atol=1e-12)
    assert cert.p == pytest.approx(0.005, abs=1e-12)
    assert cert.rho_drop == pytest.approx(1.75e-6, rel=1e-6)


@pytest.mark.parametrize("start", ["product", "upper_frechet"])
def test_refute_refutes_a_board_without_a_vertex_pair(start):
    # descend stops on a board with no refutable vertex; no board is tau-CM,
    # and at the midpoint of a cell of mass m both corner boxes hold m/2^d
    board = descend(make_basic(start, 2), n=16, max_iter=50).final
    assert tau_cm_defect(board)[0] <= 1e-9
    assert find_corner_pair(board) is None
    cert = refute_minimality(board)
    assert isinstance(cert, RefutationCertificate) and cert.passed
    assert cert.p >= board.masses.max() / 4
    # the rescan inserts the heaviest cell's midpoint into the board's cuts
    # and the surgery inserts a and b: no second board on the cell midpoints
    for cut, witness in zip(board.cuts, cert.copula.cuts):
        assert np.isin(cut, witness).all() and len(witness) <= len(cut) + 2
    assert [len(c) for c in cert.copula.cuts] == [18, 18]
    certificate = tau_cm_certificate(board)
    assert not certificate.passed
    assert "+support pair" in certificate.grid
    assert certificate.defect == cert.p == 0.015625


def test_an_explicit_grid_needs_an_interior_node():
    # one cell per axis leaves Pi's and M's axes at {0, 1}: no vertex to scan
    for C in (make_basic("product", 2), make_basic("upper_frechet", 3)):
        with pytest.raises(InputError, match="got 1"):
            tau_cm_defect(C, grid=1)


def test_a_board_with_one_cell_on_an_axis_is_scanned_at_its_heaviest_cell():
    # Pi_2 as a board with one cell on axis 0 has no interior vertex; its
    # heaviest cell's midpoint joins the axes, and at (0.5, 0.5) both corner
    # boxes hold 1/4, as Pi_2's own scan finds
    board = CheckerboardCopula([[0, 1], [0, 0.5, 1]], [[0.5, 0.5]])
    defect, worst, desc = tau_cm_defect(board)
    assert (defect, worst) == (0.25, (0.5, 0.5))
    assert "+support pair" in desc
    pair = find_corner_pair(board)
    assert pair.p == 0.25
    np.testing.assert_array_equal(pair.a, [0.5, 0.5])
    np.testing.assert_array_equal(pair.b, [0.5, 0.5])
    assert refute_minimality(board).passed


def test_refuted_node_checks_corner_masses():
    with pytest.raises(Exception):
        RefutedCopula(make_basic("product", 2), np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0.4)


def exact_cdf(B, x):
    """B(x) in exact rational arithmetic on B's float masses and cuts: each
    cell's mass times, per axis, the share of the cell below x_k."""
    shares = [
        [
            min(max((Fraction(v) - Fraction(lo)) / (Fraction(hi) - Fraction(lo)), 0), 1)
            for lo, hi in zip(c[:-1], c[1:])
        ]
        for c, v in zip(B.cuts, x)
    ]
    total = Fraction(0)
    for idx in zip(*np.nonzero(B.masses)):
        term = Fraction(float(B.masses[idx]))
        for share, i in zip(shares, idx):
            term *= share[i]
        total += term
    return total


def exact_rho_drop(C, D):
    """rho(C) - rho(D) for two boards in exact rational arithmetic: rho is
    norm * ((E[prod V_k] + E[prod (1 - V_k)])/2 - 2^-d), each cell's mass
    weighted by its exact midpoint."""
    d = C.dim

    def moments(B):
        mids = [[(Fraction(x) + Fraction(y)) / 2 for x, y in zip(c[:-1], c[1:])] for c in B.cuts]
        total = Fraction(0)
        for idx in zip(*np.nonzero(B.masses)):
            up = down = Fraction(1)
            for m, i in zip(mids, idx):
                up *= m[i]
                down *= 1 - m[i]
            total += Fraction(float(B.masses[idx])) * (up + down)
        return total

    return Fraction(2**d * (d + 1), 2**d - (d + 1)) / 2 * (moments(C) - moments(D))


def parent_board_refutation(C):
    # a board refutation as verified before the refined C shared D's cut
    # arrays: the refined C from ``discretize``, the order check on copies
    # of the cut arrays (the merge path) and one ``box_mass`` per corner box
    C = negdep._lowered(C, None)
    _, u, _, cu, su = _scan(C, None)
    u = np.asarray(u)
    p = min(cu, su)
    a, b = u, u.copy()
    if cu - p > BISECT_TOL:
        a = negdep._ray(C, u, p) * u
    elif su - p > BISECT_TOL:
        b = 1.0 - negdep._ray(survival(C), 1.0 - u, p) * (1.0 - u)
    corners = [C.box_mass(np.zeros(C.dim), a), C.box_mass(b, np.ones(C.dim))]
    D = _refined_surgery(C, a, b, p)[1]
    refined = discretize(C, [c.copy() for c in D.cuts])
    assert not any(c is t for c, t in zip(refined.cuts, D.cuts))
    report = validate(D)
    return dict(
        a=a,
        b=b,
        p=float(p),
        rho_drop=spearman_rho(refined).value - spearman_rho(D).value,
        margin_defect=max(report.worst_margin_defect, report.worst_grounding_defect),
        order_check=concordance_leq(D, refined),
        spec=to_spec(D),
        corners=corners,
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_checkerboard(2, 8, seed=0),
        lambda: random_checkerboard(2, 16, seed=4),
        lambda: random_checkerboard(3, 8, seed=1),
        lambda: random_checkerboard(4, 4, seed=2),
        lambda: make_basic("product", 3),
        lambda: make_mixture(
            [(random_checkerboard(2, 4, seed=1), 0.3), (random_checkerboard(2, 6, seed=2), 0.7)]
        ),
        lambda: refute_minimality(random_checkerboard(3, 6, seed=3)).copula,
        skewed_board,
    ],
    ids=["d2n8", "d2n16", "d3", "d4", "Pi_3", "mixture", "depth2", "skewed"],
)
def test_board_refutation_matches_the_merge_path_bit_for_bit(make):
    C = make()
    cert = refute_minimality(C)
    want = parent_board_refutation(C)
    np.testing.assert_array_equal(cert.a, want["a"])
    np.testing.assert_array_equal(cert.b, want["b"])
    assert cert.p == want["p"]
    assert cert.margin_defect == want["margin_defect"]
    # the order check's verdict, witnesses and grid are the merge path's;
    # its violation, exactly 0, and the rho drop are read off the mass
    # difference C - D and pinned to the exact values instead
    assert dataclasses.replace(cert.order_check, max_violation=0.0) == dataclasses.replace(
        want["order_check"], max_violation=0.0
    )
    assert cert.order_check.max_violation <= 1.2e-16
    board = negdep._lowered(C, None)
    assert abs(Fraction(cert.rho_drop) - exact_rho_drop(board, cert.copula)) <= 2.5e-16
    assert to_spec(cert.copula) == want["spec"]
    # the two corner boxes as one two-row call, row for row
    both = board.box_mass_many(
        np.array([np.zeros(C.dim), cert.b]), np.array([cert.a, np.ones(C.dim)])
    )
    np.testing.assert_array_equal(both, want["corners"])


@pytest.mark.parametrize("d", [2, 3])
def test_board_refute_reads_the_surgery_cuts(monkeypatch, d):
    # no projection of C onto D's cuts, no cut merge in the order check and
    # no corner box: the surgery checks the corner masses it empties
    spied = {"discretize": 0, "merge_cuts": 0, "box_mass_many": 0}
    inside = []

    def spy(name, fn):
        def wrapper(*args, **kw):
            spied[name] += name != "box_mass_many" or bool(inside)
            return fn(*args, **kw)

        return wrapper

    def corner_pair(*args):
        inside.append(1)
        try:
            return _corner_pair(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(negdep, "discretize", spy("discretize", negdep.discretize))
    monkeypatch.setattr(order, "merge_cuts", spy("merge_cuts", order.merge_cuts))
    monkeypatch.setattr(Copula, "box_mass_many", spy("box_mass_many", Copula.box_mass_many))
    monkeypatch.setattr(negdep, "_corner_pair", corner_pair)
    cert = refute_minimality(random_checkerboard(d, 8, seed=d))
    assert isinstance(cert, RefutationCertificate) and cert.order_check.exact
    assert spied == {"discretize": 0, "merge_cuts": 0, "box_mass_many": 0}


def test_refute_random_checkerboards_exact_verification():
    for d, seed in ((2, 0), (2, 1), (3, 0)):
        C = random_checkerboard(d, 8, seed=seed)
        cert = refute_minimality(C)
        assert isinstance(cert, RefutationCertificate)
        assert cert.order_check.exact
        assert isinstance(cert.copula, CheckerboardCopula)
        # the returned board evaluates identically to the surgery node
        node = RefutedCopula(C, cert.a, cert.b, cert.p)
        pts = grid_points([np.linspace(0, 1, 9)] * d)
        gap = np.abs(cert.copula.cdf_many(pts) - node.cdf_many(pts))
        assert np.max(gap) < 1e-10
        assert validate(cert.copula).passed


@pytest.mark.parametrize(
    "make_board",
    [
        lambda: discretize(make_basic("clayton_extreme", 3), 32),
        lambda: discretize(
            make_mixture(
                [
                    (make_basic("clayton_extreme", 3), 0.7),
                    (make_basic("upper_frechet", 3, representation="analytic"), 0.3),
                ]
            ),
            40,
        ),
    ],
    ids=["clayton", "clayton_m_mixture"],
)
def test_discretized_boards_survive_every_board_operation(make_board):
    # both boards carry a total-mass rounding above 1e-12 but within their
    # cells * 1e-16 construction tolerance; no operation may reject them
    board = make_board()
    survival(board)
    reflect(board, [0])
    permute(board, [2, 0, 1])
    concordance_leq(board, survival(board))
    assert refute_minimality(board).passed
    descend(board, n=8, max_iter=3)


def test_refute_glue_w_m_tau_cm_but_not_minimal():
    # tau-CM does not imply minimal at d >= 4; the refuter is one-sided
    W = make_basic("lower_frechet_2d", 2)
    glue = make_glue_product(W, make_basic("upper_frechet", 2))
    assert isinstance(refute_minimality(glue), TauCmCertificate)


def test_survival_of_surgery_node_closed_form():
    # tau(D) for a surgery node is again a surgery node on tau(C) with the
    # corners mapped through u -> 1-u; it must agree with the
    # inclusion-exclusion survival of D itself
    board = random_checkerboard(2, 6, seed=21)
    pair = find_corner_pair(board)
    D = RefutedCopula(board, pair.a, pair.b, pair.p)
    tD = survival(D)
    assert isinstance(tD, RefutedCopula)
    U = grid_points([np.linspace(0, 1, 9)] * 2)
    assert np.max(np.abs(tD.cdf_many(U) - D.survival_many(U))) < 1e-10


@pytest.mark.parametrize(
    "board",
    [random_checkerboard(d, n, seed=s) for d, n in ((2, 8), (3, 6), (4, 4)) for s in (0, 1)]
    + [skewed_board()],
)
def test_tensor_surgery_matches_refuted_node(board):
    # the oracle evaluates the surgery node through the generic cdf path
    pair = find_corner_pair(board)
    D = _refined_surgery(board, pair.a, pair.b, pair.p)[1]
    oracle = discretize(RefutedCopula(board, pair.a, pair.b, pair.p), D.cuts)
    assert np.max(np.abs(D.masses - oracle.masses)) <= 1e-12


def test_tensor_surgery_corner_next_to_a_cut():
    # b lies 1e-14 above the 0.5 cut, so the cut merge drops it: the upper
    # block must still start at the 0.5 cut
    board = discretize(make_basic("product", 2), 4)
    a = np.array([0.5, 0.5])
    b = a + 1e-14
    p = board.box_mass(b, np.ones(2))
    D = _refined_surgery(board, a, b, p)[1]
    assert [len(c) for c in D.cuts] == [5, 5]
    oracle = discretize(RefutedCopula(board, a, b, p), D.cuts)
    assert np.max(np.abs(D.masses - oracle.masses)) <= 1e-12


def test_surgery_checks_the_corner_masses_against_p():
    # the emptied blocks hold 1/16 each on Pi; a p off by 1e-6 is refused
    board = discretize(make_basic("product", 2), 4)
    a, b = np.array([0.25, 0.25]), np.array([0.75, 0.75])
    assert _refined_surgery(board, a, b, 0.0625)[1].masses[0, 0] == 0.0
    with pytest.raises(RefuterInternalError, match="missed p"):
        _refined_surgery(board, a, b, 0.0625 + 1e-6)


def test_a_wrong_ray_solve_is_caught_on_a_board(monkeypatch):
    # a comes from the ray solve on the skewed board; a wrong alpha moves the
    # corner box [0, a] off p, which find_corner_pair checks on its box
    # masses and the refuter and descent (whose d = 3 steps on Pi solve
    # rays) on the blocks the surgery empties
    board = skewed_board()
    monkeypatch.setattr(negdep, "_ray", lambda X, u, p: 0.5)
    with pytest.raises(RefuterInternalError, match="missed p"):
        find_corner_pair(board)
    with pytest.raises(RefuterInternalError, match="missed p"):
        refute_minimality(board)
    with pytest.raises(RefuterInternalError, match="missed p"):
        descend(make_basic("product", 3), n=6, max_iter=15)


@pytest.mark.parametrize(
    "board",
    [random_checkerboard(d, n, seed=s) for d, n in ((2, 8), (3, 6), (4, 4)) for s in range(4)]
    + [skewed_board()],
)
def test_witness_gap_reads_the_vertices_bit_for_bit(board):
    # the corner a lies on the refined cuts, so the gap is the mass
    # difference C - D summed below it; it agrees with C(a) - D(a) in exact
    # arithmetic on the input board and on D
    pair = find_corner_pair(board)
    refined, D = _refined_surgery(board, pair.a, pair.b, pair.p)
    assert all(np.isin(x, c) for x, c in zip(pair.a, D.cuts))
    gap = _witness_gap(refined - D.masses, D.cuts, pair.a)
    exact = exact_cdf(board, pair.a) - exact_cdf(D, pair.a)
    assert abs(Fraction(gap) - exact) <= 2e-16
    assert gap >= pair.p - 1e-9


def test_witness_gap_reads_the_surgery_corner_vertex(monkeypatch):
    # corners 1e-14 off the cuts are not inserted: the emptied block ends at
    # the vertex (0.25, 0.25), and the gap is read there, off both vertex
    # cdfs; the interpolated cdfs at a give the same value
    board = discretize(make_basic("product", 2), 4)
    a = np.array([0.25, 0.25]) + 1e-14
    b = 1.0 - a
    refined, D = _refined_surgery(board, a, b, 0.0625)
    C = CheckerboardCopula(D.cuts, refined)
    assert not np.isin(a[0], D.cuts[0])
    interpolated = C.cdf(a) - D.cdf(a)

    def unavailable(*args, **kw):
        raise AssertionError("cdf called")

    monkeypatch.setattr(CheckerboardCopula, "cdf", unavailable)
    gap = _witness_gap(refined - D.masses, D.cuts, a)
    assert gap == C.vertex_cdf[1, 1] - D.vertex_cdf[1, 1]
    assert gap == interpolated


def test_surgery_keeps_the_board_array_of_an_axis_it_does_not_cut():
    # a and b lie on the board's cuts: no axis gains a cut, so every cut
    # array and the mass tensor are the board's own, and nothing is split;
    # on Pi both corner blocks hold 1/8
    board = discretize(make_basic("product", 2), 4)
    a, b = np.array([0.25, 0.5]), np.array([0.75, 0.5])
    refined, D = _refined_surgery(board, a, b, 0.125)
    assert all(c is t for c, t in zip(board.cuts, D.cuts))
    assert refined is board.masses
    assert not refined.flags.writeable


CLOSE_CUTS = [0.0, 0.25, 0.5, 0.50000000000005, 1.0]


def close_cuts_board():
    # a valid board two of whose cuts lie within CUT_GAP of each other
    masses = np.zeros((4, 4))
    masses[0, 0] = masses[1, 1] = 0.25
    masses[2, 2] = 5e-14
    masses[3, 3] = 0.49999999999995
    return CheckerboardCopula([CLOSE_CUTS, CLOSE_CUTS], masses)


def test_refute_a_board_with_cuts_within_cut_gap():
    # the refinement keeps every cut of the board, so its cells split by
    # fractions of their own widths
    board = close_cuts_board()
    cert = refute_minimality(board)
    assert isinstance(cert, RefutationCertificate) and cert.passed
    assert all(np.isin(CLOSE_CUTS, c).all() for c in cert.copula.cuts)
    assert validate(cert.copula).passed
    # so does the midpoint refinement of tau_cm_certificate
    assert not tau_cm_certificate(board).passed


# -- descent ----------------------------------------------------------------


def test_descend_product_converges_to_w_like_board():
    res = descend(make_basic("product", 2), n=16, max_iter=50)
    assert res.status == "converged"
    defect, _, _ = tau_cm_defect(res.final)
    assert defect <= 1e-9
    assert kendall_tau(res.final).value <= -0.85


def test_descend_m_first_step_blocks_then_converges():
    res = descend(make_basic("upper_frechet", 2), n=16, max_iter=50)
    assert res.status == "converged"
    assert kendall_tau(res.final).value <= -0.85


def test_descend_trace_monotone():
    res = descend(make_basic("product", 2), n=8, max_iter=50)
    ki = [s.kendall_integral for s in res.trace]
    rho = [s.rho for s in res.trace]
    assert all(b <= a + 1e-12 for a, b in zip(ki, ki[1:]))
    assert all(b < a for a, b in zip(rho, rho[1:]))


def test_descend_minimal_input_returns_immediately():
    board = discretize(make_reflected_upper(3, [0]), 8)
    res = descend(board, n=8, max_iter=10)
    assert res.status == "converged"
    assert len(res.trace) == 1  # only the initial defect measurement
    assert np.isnan(res.trace[0].p)


def test_descend_respects_cut_cap():
    res = descend(make_basic("product", 2), n=4, max_iter=20, cut_cap=8)
    assert all(len(c) - 1 <= 8 for c in res.final.cuts)


def test_descend_makes_progress_in_3d():
    # d=3 surgeries land off-grid, so this exercises cut insertion and the
    # coarsening cap together; full convergence is not claimed (and not
    # reached in 15 steps), only honest strict descent
    res = descend(make_basic("product", 3), n=6, max_iter=15, stall_patience=40)
    assert res.status == "max_iter"
    assert res.trace[-1].defect < 0.02 < res.trace[0].defect
    assert all(b.rho < a.rho for a, b in zip(res.trace, res.trace[1:]))
    assert all(
        b.kendall_integral <= a.kendall_integral + 1e-10
        for a, b in zip(res.trace, res.trace[1:])
    )


def test_descend_keeps_mass_and_margins_exact_without_correction():
    # 150 tensor surgeries in d=3 with cut insertion and coarsening: no
    # drift accumulates, so no correction is needed
    res = descend(make_basic("product", 3), n=8, max_iter=150)
    board = res.final
    assert abs(board.masses.sum() - 1.0) <= 1e-14
    for k in range(3):
        slab = board.masses.sum(axis=tuple(i for i in range(3) if i != k))
        assert np.max(np.abs(slab - np.diff(board.cuts[k]))) <= 1e-14


def test_descend_product_64_converges_without_false_stall():
    # the defect plateaus for many steps while int C dQ^C keeps dropping
    res = descend(make_basic("product", 2), n=64, max_iter=80)
    assert res.status == "converged"


def test_descend_stalls_when_the_kendall_integral_stops_dropping():
    # coarsening to 5 cells per axis undoes part of each d=3 surgery, so the
    # integral stops dropping before the board converges
    patience = 2
    res = descend(make_basic("product", 3), n=4, max_iter=60, cut_cap=5, stall_patience=patience)
    assert res.status == "stalled"
    assert np.isnan(res.trace[-1].p)
    best = min(s.kendall_integral for s in res.trace[:-patience])
    assert all(s.kendall_integral >= best - 1e-15 for s in res.trace[-patience:])


def test_descend_rejects_tiny_grids():
    with pytest.raises(Exception):
        descend(make_basic("product", 2), n=2)


def test_ray_bisects_off_a_board(monkeypatch):
    # a reflected extreme Clayton is no board, so its corner ray is bisected
    # on the continuous map alpha -> C(alpha u)
    calls = []
    monkeypatch.setattr(
        "mincop.negdep._bisect_monotone",
        lambda *args: calls.append(args) or _bisect_monotone(*args),
    )
    C = Reflected(ClaytonExtreme(3), [0])
    cert = refute_minimality(C)
    assert calls
    assert isinstance(cert, RefutationCertificate) and cert.passed
    assert cert.order_check.relation == Relation.STRICTLY_BELOW
    assert abs(C.box_mass(np.zeros(3), cert.a) - cert.p) <= 1e-9
    assert abs(C.box_mass(cert.b, np.ones(3)) - cert.p) <= 1e-9


def bisection_of_100_halvings(f, target, lo, hi):
    # the bisection with no stop at adjacent doubles: it halves 100 times
    # unless the bracket narrows below 1e-16, which a root in [0.5, 1],
    # where doubles are 1.1e-16 apart, never does
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    return hi


def counted(f, calls):
    return lambda x: calls.append(x) or f(x)


def test_bisection_stops_at_adjacent_doubles():
    rng = np.random.default_rng(0)
    roots = np.concatenate([rng.random(100), 0.5 + 0.5 * rng.random(100), [1e-3, 0.5, 1.0]])
    for r in roots:
        for f, target in ((lambda x: x, r), (lambda x: x**3, r**3), (lambda x: float(x >= r), 0.5)):
            calls = []
            got = _bisect_monotone(counted(f, calls), target, 0.0, 1.0)
            assert got == bisection_of_100_halvings(f, target, 0.0, 1.0)
            assert len(calls) <= 60


def test_refuting_the_reflected_clayton_bisects_in_few_calls(monkeypatch):
    # each ray bisection makes at most 60 cdf calls (102 without the stop at
    # adjacent doubles) and lands where 100 halvings land
    counts = []

    def bisect(f, target, lo, hi):
        calls = []
        got = _bisect_monotone(counted(f, calls), target, lo, hi)
        assert got == bisection_of_100_halvings(f, target, lo, hi)
        counts.append(len(calls))
        return got

    monkeypatch.setattr("mincop.negdep._bisect_monotone", bisect)
    assert refute_minimality(Reflected(ClaytonExtreme(3), [0])).passed
    assert counts and max(counts) <= 60

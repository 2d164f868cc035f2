"""Independent-route agreement checks: every exact path is confronted with
a second computation that shares none of its code (Monte Carlo on samplers,
tensor quadrature on cdfs, exact boards against analytic nodes)."""

import itertools

import numpy as np
import pytest

from mincop import (
    LowerFrechet2d,
    Permuted,
    Reflected,
    UpperFrechet,
    find_corner_pair,
    make_basic,
    make_glue_product,
    make_reflected_upper,
    make_triangle_3d,
    mixture_all_reflections,
    random_checkerboard,
    refute_minimality,
    sample,
    shuffle_a,
    shuffle_b,
    spearman_rho,
)
from mincop.core import (
    _BOX_ROWS,
    CUT_GAP,
    MOMENT_1MV,
    MOMENT_V,
    CheckerboardCopula,
    ClaytonExtreme,
    Copula,
    GlueProduct,
    ProductCopula,
    RefutedCopula,
    SegmentCopula,
    _gauss_nodes,
    grid_axes,
    grid_points,
    merge_cuts,
)


def _mc_box_moment(C, lo, hi, seed, n=300_000):
    pts = C.sample(seed, n)
    inbox = np.all((pts >= lo) & (pts <= hi), axis=1)
    vals = pts[:, 0] * (1 - pts[:, 1]) * pts[:, 2] * inbox
    return float(vals.mean()), 3 * float(vals.std()) / np.sqrt(n)


BOX_LO = np.array([0.1, 0.0, 0.2])
BOX_HI = np.array([0.9, 0.7, 1.0])
CODES = [MOMENT_V, MOMENT_1MV, MOMENT_V]


def test_reflected_moment_against_sampler():
    R = Reflected(make_triangle_3d(), [0, 2])
    exact = R.product_moment(BOX_LO, BOX_HI, CODES)
    mc, bound = _mc_box_moment(R, BOX_LO, BOX_HI, seed=0)
    assert abs(exact - mc) <= bound + 1e-4


def test_permuted_moment_against_sampler():
    P = Permuted(make_triangle_3d(), [2, 0, 1])
    exact = P.product_moment(BOX_LO, BOX_HI, CODES)
    mc, bound = _mc_box_moment(P, BOX_LO, BOX_HI, seed=1)
    assert abs(exact - mc) <= bound + 1e-4


def test_surgery_moment_expansion_against_quadrature():
    # the trickiest exact path: corner surgery over a segment support in d=3;
    # rho via the moment expansion must agree with tensor quadrature of the
    # cdf itself
    cert = refute_minimality(make_basic("upper_frechet", 3))
    D = cert.copula
    exact = spearman_rho(D)
    quad = spearman_rho(D, method="quadrature", quad_nodes=40)
    assert exact.estimate.method == "exact"
    assert exact.value == pytest.approx(-1 / 6, abs=1e-12)
    assert abs(exact.value - quad.value) < 2e-3


def test_surgery_node_boxes_match_exact_board():
    # the surgery node on the input board is the oracle for the exact board
    # the refuter returns
    board = random_checkerboard(3, 5, seed=3)
    cert = refute_minimality(board)
    node = RefutedCopula(board, cert.a, cert.b, cert.p)
    rng = np.random.default_rng(0)
    for _ in range(10):
        lo = rng.random(3) * 0.5
        hi = lo + rng.random(3) * (1 - lo)
        assert node.box_mass(lo, hi) == pytest.approx(
            cert.copula.box_mass(lo, hi), abs=1e-10
        )


def test_glue_sampler_has_product_structure():
    g = make_glue_product(
        make_basic("lower_frechet_2d", 2), make_basic("upper_frechet", 2)
    )
    pts = sample(g, 5, 100_000)
    assert np.max(np.abs(pts[:, 0] + pts[:, 1] - 1)) < 1e-12
    assert np.max(np.abs(pts[:, 2] - pts[:, 3])) < 1e-12
    assert abs(np.corrcoef(pts[:, 0], pts[:, 2])[0, 1]) < 0.02


def test_structural_transforms_match_generic_nodes():
    # every structural shortcut (tensor flips, endpoint maps, collapses,
    # glue splits, mixture distribution) must agree with the plain
    # inclusion-exclusion wrapper node it replaces
    from mincop import make_mixture, random_checkerboard, reflect, permute
    from mincop.core import Permuted, Reflected, grid_points

    U3 = grid_points([np.linspace(0, 1, 6)] * 3)
    tri = make_triangle_3d()

    stacked = Reflected(Permuted(tri, (1, 2, 0)), [0, 1])
    assert np.max(
        np.abs(
            reflect(stacked, [1, 2]).cdf_many(U3)
            - Reflected(stacked, [1, 2]).cdf_many(U3)
        )
    ) < 1e-15

    mix = make_mixture(
        [
            (make_basic("upper_frechet", 3, "analytic"), 0.4),
            (make_basic("product", 3), 0.6),
        ]
    )
    assert np.max(
        np.abs(
            permute(mix, (2, 0, 1)).cdf_many(U3)
            - Permuted(mix, (2, 0, 1)).cdf_many(U3)
        )
    ) < 1e-15

    g = make_glue_product(
        make_basic("lower_frechet_2d", 2), make_basic("upper_frechet", 2)
    )
    U4 = grid_points([np.linspace(0, 1, 5)] * 4)
    assert np.max(
        np.abs(
            reflect(g, [1, 2]).cdf_many(U4) - Reflected(g, [1, 2]).cdf_many(U4)
        )
    ) < 1e-15

    board = random_checkerboard(3, 4, seed=1)
    assert np.max(
        np.abs(
            reflect(board, [0, 2]).cdf_many(U3)
            - Reflected(board, [0, 2]).cdf_many(U3)
        )
    ) < 1e-12


# -- the separable Clayton box mass against the generic inclusion-exclusion --


def clayton_boxes(d, seed):
    # random boxes with degenerate rows (lo == hi), coordinates exactly 0 and
    # 1, and one more row than a block holds
    rng = np.random.default_rng(seed)
    A, B = rng.random((2, _BOX_ROWS + 1, d))
    Lo, Hi = np.minimum(A, B), np.maximum(A, B)
    Lo[::7] = Hi[::7]
    Lo[::5, 0] = 0.0
    Hi[::3, -1] = 1.0
    Lo[::11, d - 1] = Hi[::11, d - 1] = 1.0
    Lo[::13, 0] = Hi[::13, 0] = 0.0
    return Lo, Hi


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_clayton_box_mass_matches_generic_inclusion_exclusion(d):
    C = ClaytonExtreme(d)
    Lo, Hi = clayton_boxes(d, seed=d)
    zero_col = Lo.copy()
    zero_col[:, d // 2] = 0.0  # an axis that is not free
    b = np.linspace(0.3, 0.6, d)  # broadcast lo, as RefutedCopula passes it
    for lo, hi in ((Lo, Hi), (zero_col, Hi), (np.broadcast_to(b, Hi.shape), np.maximum(Hi, b))):
        fast = C.box_mass_many(lo, hi)
        oracle = Copula.box_mass_many(C, lo, hi)
        assert np.max(np.abs(fast - oracle)) <= 1e-13
    assert C.box_mass_many(np.zeros((1, d)), np.ones((1, d)))[0] == 1.0


def pow_clayton_cdf(U, d):
    # the extreme Clayton's cdf with both powers taken by np.power
    e = 1.0 / (d - 1)
    return np.power(np.clip(np.power(U, e).sum(axis=1) - (d - 1), 0, None), d - 1)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_clayton_cdf_matches_the_power_formula(d):
    # phi's power by repeated products: np.power's bits for d <= 3, a few
    # ulps for d >= 4, zeros in the same places; the cdf is the box from the
    # origin, so both queries share one phi
    C = ClaytonExtreme(d)
    Lo, Hi = clayton_boxes(d, seed=d)
    for U in (Lo, Hi, np.vstack([Lo, Hi]) ** (1.0 / d)):  # the last nearer the surface
        got, ref = C.cdf_many(U), pow_clayton_cdf(U, d)
        if d <= 3:
            assert np.array_equal(got, ref)
        else:
            assert np.array_equal(got == 0, ref == 0)
            assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))
        assert np.array_equal(C.box_mass_many(np.zeros_like(U), U), got)


def per_subset_reflection(C, K, U):
    # (nu_K C)(u) = sum_{L subseteq K} (-1)^{|L|} C(w_L), where w_L takes u
    # off K, 1 on K \ L and 1 - u on L
    out = np.zeros(len(U))
    for r in range(len(K) + 1):
        for L in itertools.combinations(K, r):
            W = U.copy()
            W[:, K] = 1.0
            W[:, list(L)] = 1.0 - U[:, list(L)]
            out += (-1.0) ** r * C.cdf_many(W)
    return out


def reflection_inners(d):
    a = np.array([0.4, 0.5, 0.6, 0.5][:d])  # Q^Pi[[0,a]] = Q^Pi[[a,1]]
    return [
        ClaytonExtreme(d),
        RefutedCopula(ProductCopula(d), a, a, float(np.prod(a))),
        Permuted(ClaytonExtreme(d), list(range(d))[::-1]),
    ]


@pytest.mark.parametrize("d", [3, 4])
def test_reflected_box_mass_matches_the_per_subset_loop(d):
    U = np.random.default_rng(d).random((500, d))
    U[::9, 0] = 0.0
    U[::7, -1] = 1.0
    for C in reflection_inners(d):
        for r in range(d + 1):
            for K in itertools.combinations(range(d), r):
                got = Reflected(C, K).cdf_many(U)
                assert np.max(np.abs(got - per_subset_reflection(C, list(K), U))) <= 1e-13


class CountingCopula(Copula):
    """A generic copula (no box-mass override) that counts cdf_many calls
    and the rows they carry."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.calls = 0
        self.rows = 0

    def cdf_many(self, U):
        self.calls += 1
        self.rows += len(U)
        return self.inner.cdf_many(U)


@pytest.mark.parametrize("d", [3, 4])
def test_reflected_over_a_generic_inner_makes_one_call_per_reflected_corner(d):
    # one stacked call holds a block of rows per reflected corner; the axes
    # off K (lo all 0) add no corners
    U = np.random.default_rng(0).random((50, d))
    for r in range(d + 1):
        for K in itertools.combinations(range(d), r):
            C = CountingCopula(ClaytonExtreme(d))
            Reflected(C, K).cdf_many(U)
            assert (C.calls, C.rows) == (1, 2 ** len(K) * len(U))


# -- the stacked generic box mass against one cdf_many call per corner --


def per_corner_box_mass(C, Lo, Hi):
    # inclusion-exclusion with one cdf_many call per corner of the free axes
    out = np.zeros(len(Lo))
    for mask in itertools.product(*[(0, 1) if f else (1,) for f in Lo.any(axis=0)]):
        corner = np.where(np.asarray(mask, bool), Hi, Lo)
        sign = -1.0 if (C.dim - sum(mask)) % 2 else 1.0
        out += sign * C.cdf_many(corner)
    return out


def generic_boxes(d, seed):
    # degenerate rows (lo == hi), coordinates exactly 0, 1 and on the 1/2
    # cut, and more rows than a block of d or d - 1 free axes holds
    rng = np.random.default_rng(seed)
    A, B = rng.random((2, (_BOX_ROWS >> (d - 1)) + 1, d))
    Lo, Hi = np.minimum(A, B), np.maximum(A, B)
    Lo[::7] = Hi[::7]
    Lo[::5, 0] = 0.0
    Hi[::3, -1] = 1.0
    Lo[::11, 1] = Hi[::11, 1] = 0.5
    Hi[::4, 0] = np.maximum(Hi[::4, 0], 0.5)
    Lo[::4, 0] = 0.5
    Lo[::13, d - 1] = Hi[::13, d - 1] = 1.0
    return Lo, Hi


def generic_box_copulas():
    boards = [random_checkerboard(d, 4, seed=d) for d in (2, 3, 4, 5)]
    pair = find_corner_pair(boards[1])
    return boards + [
        UpperFrechet(3),
        LowerFrechet2d(),
        Permuted(boards[1], [2, 0, 1]),
        RefutedCopula(boards[1], pair.a, pair.b, pair.p),
    ]


@pytest.mark.parametrize("C", generic_box_copulas(), ids=lambda C: f"{type(C).__name__}{C.dim}")
def test_stacked_box_mass_matches_one_call_per_corner_bit_for_bit(C):
    d = C.dim
    Lo, Hi = generic_boxes(d, seed=d)
    zero_col = Lo.copy()
    zero_col[:, d // 2] = 0.0  # an axis that is not free
    for lo in (Lo, zero_col):
        np.testing.assert_array_equal(Copula.box_mass_many(C, lo, Hi), per_corner_box_mass(C, lo, Hi))


def test_board_box_mass_is_one_cdf_call(monkeypatch):
    board = random_checkerboard(3, 4, seed=0)
    calls = []
    cdf_many = CheckerboardCopula.cdf_many
    monkeypatch.setattr(
        CheckerboardCopula, "cdf_many", lambda self, U: calls.append(len(U)) or cdf_many(self, U)
    )
    board.box_mass([0.1, 0.2, 0.3], [0.6, 0.7, 0.8])
    assert calls == [8]


# -- the per-axis segment kernel against the broadcast (S, N, d) formula --


def broadcast_param_interval(C, Lo, Hi):
    # every axis at once in (segments, points, axes) temporaries, reduced
    # over the last axis
    s = C.starts[:, None, :]
    dirv = C.dirs[:, None, :]
    r_lo = (Lo[None, :, :] - s) / dirv
    r_hi = (Hi[None, :, :] - s) / dirv
    lower = np.minimum(r_lo, r_hi)
    upper = np.maximum(r_lo, r_hi)
    t0 = np.clip(lower.max(axis=2), 0.0, 1.0)
    t1 = np.clip(upper.min(axis=2), 0.0, 1.0)
    return t0, t1


def broadcast_box_mass(C, Lo, Hi):
    t0, t1 = broadcast_param_interval(C, Lo, Hi)
    return C.masses @ np.clip(t1 - t0, 0.0, None)


def random_segments(d, seed, count=9):
    # endpoints with coordinates exactly 0 and 1 and mixed direction signs;
    # the margins need not be uniform, so the margin check is skipped
    rng = np.random.default_rng(seed)
    starts, ends = rng.random((2, count, d))
    starts[::3, 0] = 0.0
    ends[1::3, -1] = 1.0
    ends[1::4, 0] = 0.0
    flip = rng.random((count, d)) < 0.5
    starts, ends = np.where(flip, ends, starts), np.where(flip, starts, ends)
    assert np.all(np.abs(ends - starts) > 1e-6)
    masses = rng.random(count)
    return SegmentCopula(starts, ends, masses / masses.sum(), _skip_margin_check=True)


def kernel_points(d, seed, n=300):
    rng = np.random.default_rng(seed)
    A, B = rng.random((2, n, d))
    Lo, Hi = np.minimum(A, B), np.maximum(A, B)
    Lo[::5, 0] = 0.0
    Hi[::3, -1] = 1.0
    Lo[::11, d - 1] = Hi[::11, d - 1] = 1.0
    Lo[::13, 0] = Hi[::13, 0] = 0.0
    # boxes with lo > hi on one axis
    Lo[::7, d // 2], Hi[::7, d // 2] = Hi[::7, d // 2].copy(), Lo[::7, d // 2].copy()
    return Lo, Hi


KERNEL_SEGMENTS = {
    **{f"random_d{d}": random_segments(d, seed=d) for d in (2, 3, 4, 5)},
    "triangle": make_triangle_3d(),
    "reflected_upper_3": make_reflected_upper(3, [1]),
    "reflected_upper_4": make_reflected_upper(4, [0, 2]),
    "all_reflections_3": mixture_all_reflections(3),
    "all_reflections_4": mixture_all_reflections(4),
    "shuffle_a": shuffle_a(),
    "shuffle_b": shuffle_b(),
}


@pytest.mark.parametrize("C", KERNEL_SEGMENTS.values(), ids=KERNEL_SEGMENTS.keys())
def test_segment_kernel_matches_broadcast_formula_bit_for_bit(C):
    d = C.dim
    Lo, Hi = kernel_points(d, seed=10 + d)
    assert_bits = np.testing.assert_array_equal
    zero = np.zeros_like(Hi)
    # (lo, hi, the oracle's lo): the boxes, the origin as None, and
    # product_moment's one box as (1, d) broadcast views of lo and hi
    cases = [(Lo, Hi, Lo), (None, Hi, zero)]
    for lo, hi in zip(Lo[:20], Hi[:20]):
        lo1, hi1 = np.broadcast_to(lo, (1, d)), np.broadcast_to(hi, (1, d))
        cases.append((lo1, hi1, lo1))
    for lo, hi, oracle_lo in cases:
        for got, want in zip(C._param_interval(lo, hi), broadcast_param_interval(C, oracle_lo, hi)):
            assert_bits(got, want)
    assert_bits(C.box_mass_many(Lo, Hi), broadcast_box_mass(C, Lo, Hi))
    assert_bits(C.cdf_many(Hi), broadcast_box_mass(C, zero, Hi))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_segment_margins_through_the_kernel_match_the_margin_formula(d):
    # the margin cdf on axis k, read through cdf_many at points 1 off axis
    # k, against the direct per-axis formula
    C = random_segments(d, seed=20 + d)
    t = np.linspace(0.0, 1.0, 41)
    for k in range(d):
        s, dirv = C.starts[:, k, None], C.dirs[:, k, None]
        r = (t[None, :] - s) / dirv
        want = C.masses @ np.where(dirv > 0, np.clip(r, 0, 1), np.clip(1 - r, 0, 1))
        U = np.ones((len(t), d))
        U[:, k] = t
        assert np.max(np.abs(C.cdf_many(U) - want)) <= 1e-15


# -- the running-product board cdf against one weight per corner -----------


def per_corner_board_cdf(board, U):
    # multilinear interpolation with each corner's weight built from ones,
    # one corner at a time, each point located by a clipped search of all cuts
    idx, frac = [], []
    for k, c in enumerate(board.cuts):
        i = np.clip(np.searchsorted(c, U[:, k], side="right") - 1, 0, len(c) - 2)
        idx.append(i)
        frac.append(np.clip((U[:, k] - c[i]) / (c[i + 1] - c[i]), 0.0, 1.0))
    out = np.zeros(len(U))
    for mask in itertools.product((0, 1), repeat=board.dim):
        w = np.ones(len(U))
        pos = []
        for k, m in enumerate(mask):
            w = w * (frac[k] if m else 1.0 - frac[k])
            pos.append(idx[k] + m)
        out += w * board.vertex_cdf[tuple(pos)]
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_board_cdf_matches_one_weight_per_corner_bit_for_bit(d):
    # irregular cuts (a surgery board), 10^5 rows with coordinates exactly
    # 0, 1 and on cuts
    board = refute_minimality(random_checkerboard(d, 4, seed=d)).copula
    assert isinstance(board, CheckerboardCopula)
    U = np.random.default_rng(d).random((10**5, d))
    U[::3, 0] = 0.0
    U[::5, d - 1] = 1.0
    for k in range(d):
        c = board.cuts[k]
        U[k::7, k] = c[np.arange(len(U[k::7])) % len(c)]
    U[::11] = 1.0
    U[1::11] = 0.0
    np.testing.assert_array_equal(board.cdf_many(U), per_corner_board_cdf(board, U))
    # a few rows, as the ray solve and the box masses of one corner pair ask
    np.testing.assert_array_equal(board.cdf_many(U[:3]), per_corner_board_cdf(board, U[:3]))


# -- the sorted cut merge against np.unique and np.union1d ------------------


def unique_merge_cuts(*cut_lists):
    kept = np.empty(0)
    for cuts in cut_lists:
        new = np.unique(np.asarray(cuts, dtype=float))
        new = new[np.diff(new, prepend=-np.inf) > CUT_GAP]
        if kept.size:
            new = new[np.abs(new[:, None] - kept).min(axis=1) > CUT_GAP]
        kept = np.union1d(kept, new)
    return kept


def test_merge_cuts_matches_the_unique_merge_bit_for_bit():
    # repeated points, points within and just past CUT_GAP of each other
    # and of earlier lists, signed zeros and empty lists
    rng = np.random.default_rng(0)
    for _ in range(2000):
        lists = []
        for _ in range(rng.integers(1, 5)):
            x = rng.random(rng.integers(0, 12))
            x = np.concatenate([x, x[:3] + rng.choice([0.0, 1e-14, -5e-14, 2e-13], size=len(x[:3]))])
            if rng.random() < 0.3:
                x = np.concatenate([x, [0.0, 1.0, -0.0]])
            lists.append(list(x) if rng.random() < 0.5 else x)
        got, want = merge_cuts(*lists), unique_merge_cuts(*lists)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))



# -- lattice evaluation against the pointwise kernels on grid_points --------


def meshgrid_points(axes):
    # the Cartesian product as np.meshgrid and np.column_stack build it
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def test_grid_points_matches_the_meshgrid_formula_bit_for_bit():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3, 4, 5):
        for _ in range(20):
            axes = [np.sort(rng.random(rng.integers(1, 7))) for _ in range(d)]
            axes[0][0] = 0.0
            axes[-1][-1] = 1.0
            got, want = grid_points(axes), meshgrid_points(axes)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
    # lists, integer nodes and an empty axis
    for axes in ([[0.0, 0.5, 1.0], [0.25]], [np.arange(3), np.arange(2)], [np.ones(2), np.empty(0)]):
        got, want = grid_points(axes), meshgrid_points(axes)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def lattice_axes(d, seed, lengths=None):
    # sorted nodes with 0 and 1 on every axis of two or more nodes, axes of
    # unequal lengths and a single-node axis
    rng = np.random.default_rng(seed)
    lengths = lengths or [[5, 7, 1, 4, 3, 6][k] for k in range(d)]
    axes = []
    for n in lengths:
        a = np.sort(rng.random(n))
        if n >= 2:
            a[0], a[-1] = 0.0, 1.0
        axes.append(a)
    return axes


def assert_cdf_grid_bits(C, axes):
    want = C.cdf_many(grid_points(axes)).reshape([len(a) for a in axes])
    got = C.cdf_grid(axes)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


GRID_SEGMENTS = {
    **{f"random_d{d}": random_segments(d, seed=30 + d) for d in (2, 3, 4, 5)},
    "triangle": make_triangle_3d(),
    "shuffle_a": shuffle_a(),
    "shuffle_b": shuffle_b(),
    "all_reflections_3": mixture_all_reflections(3),
    "all_reflections_4": mixture_all_reflections(4),
}


def assert_segment_lattice_bits(C, axes):
    # the lattice against cdf_many on its points and against the broadcast
    # (S, N, d) formula, from the origin and from random lo nodes
    assert_cdf_grid_bits(C, axes)
    shape = [len(a) for a in axes]
    pts = grid_points(axes)
    want = broadcast_box_mass(C, np.zeros_like(pts), pts).reshape(shape)
    np.testing.assert_array_equal(C.cdf_grid(axes), want)
    rng = np.random.default_rng(C.dim)
    lo_axes = [a * rng.random(len(a)) for a in axes]
    want = broadcast_box_mass(C, grid_points(lo_axes), pts).reshape(shape)
    np.testing.assert_array_equal(C.box_mass_grid(lo_axes, axes), want)


@pytest.mark.parametrize("C", GRID_SEGMENTS.values(), ids=GRID_SEGMENTS.keys())
def test_segment_cdf_grid_matches_cdf_many_bit_for_bit(C):
    d = C.dim
    assert_segment_lattice_bits(C, lattice_axes(d, seed=d))
    # the scan's lattice: uniform nodes plus every segment endpoint (up to
    # 18 per axis here, so d = 5 would hold millions of points)
    if d <= 4:
        assert_segment_lattice_bits(C, grid_axes([C], 16 if d <= 3 else 4))
    assert_segment_lattice_bits(C, [np.array([0.5])] * d)


GLUES = {
    "W_pi1": GlueProduct(LowerFrechet2d(), ProductCopula(1)),
    "pi1_clayton3": GlueProduct(ProductCopula(1), ClaytonExtreme(3)),
    "M2_pi1": GlueProduct(UpperFrechet(2), ProductCopula(1)),
}
SEGMENT_GLUES = {
    "shuffle_a_pi1": GlueProduct(shuffle_a(), ProductCopula(1)),
    "pi1_triangle": GlueProduct(ProductCopula(1), make_triangle_3d()),
}


@pytest.mark.parametrize("C", GLUES.values(), ids=GLUES.keys())
def test_glue_cdf_grid_matches_cdf_many_bit_for_bit(C):
    assert_cdf_grid_bits(C, lattice_axes(C.dim, seed=C.dim))
    assert_cdf_grid_bits(C, grid_axes([C], 12))


@pytest.mark.parametrize("C", SEGMENT_GLUES.values(), ids=SEGMENT_GLUES.keys())
def test_glue_with_a_segment_half_matches_cdf_many_to_rounding(C):
    # a segment half ends in the BLAS product masses @ lengths, whose
    # rounding of one column can depend on how many columns the call holds,
    # and the half's lattice holds fewer than the glue's point array
    for axes in (lattice_axes(C.dim, seed=C.dim), grid_axes([C], 12)):
        want = C.cdf_many(grid_points(axes)).reshape([len(a) for a in axes])
        assert np.max(np.abs(C.cdf_grid(axes) - want)) <= 1e-15


def clayton_lattices(d):
    # unequal lengths with a single-node axis, every axis at 0 and 1, and a
    # lattice of more than one _BOX_ROWS block whose trailing axes fit one
    sizes = [-(-_BOX_ROWS // 9 ** (d - 1)) + 2] + [9] * (d - 1)
    return [
        lattice_axes(d, seed=d),
        [np.linspace(0.0, 1.0, 5)] * d,
        lattice_axes(d, seed=d + 1, lengths=sizes),
    ]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_clayton_grids_match_the_pointwise_kernel_bit_for_bit(d):
    # bit for bit against the batch kernel on grid_points; within 1e-13 of
    # the closed form phi(sum g) with np.power and, for the boxes with
    # random lo, of the generic inclusion-exclusion over that kernel's cdf
    C = ClaytonExtreme(d)
    for axes in clayton_lattices(d):
        assert_cdf_grid_bits(C, axes)
        shape = [len(a) for a in axes]
        pts = grid_points(axes)
        closed = np.maximum(np.power(pts, 1.0 / (d - 1)).sum(axis=1) - (d - 1), 0.0) ** (d - 1)
        assert np.max(np.abs(C.cdf_grid(axes) - closed.reshape(shape))) <= 1e-13
        rng = np.random.default_rng(d)
        lo = [a * rng.random(len(a)) for a in axes]
        zero_lo = [np.zeros(len(a)) if k % 2 else x for k, (a, x) in enumerate(zip(axes, lo))]
        for lo_axes in (lo, zero_lo, [np.zeros(len(a)) for a in axes], axes):
            got = C.box_mass_grid(lo_axes, axes)
            want = C.box_mass_many(grid_points(lo_axes), pts).reshape(shape)
            np.testing.assert_array_equal(got, want)
            if lo_axes is lo or lo_axes is zero_lo:
                generic = Copula.box_mass_many(C, grid_points(lo_axes), pts).reshape(shape)
                assert np.max(np.abs(got - generic)) <= 1e-13


def test_clayton_grid_blocks_stay_within_box_rows():
    # a lattice whose trailing axes alone exceed a block, and one whose last
    # axis does: every block holds at most _BOX_ROWS points and the blocks
    # tile the lattice once
    from mincop.core import _lattice_blocks

    for shape in ([3, 200, 300], [2, _BOX_ROWS + 5], [40, 30, 20], [1], [4, 0, 3]):
        seen = np.zeros(shape, int)
        for block in _lattice_blocks(shape):
            assert seen[block].size <= _BOX_ROWS
            seen[block] += 1
        assert np.all(seen == 1)


@pytest.mark.parametrize("d", [3, 4])
def test_reflected_clayton_cdf_grid_matches_cdf_many_bit_for_bit(d):
    axes = lattice_axes(d, seed=40 + d)
    for r in range(d + 1):
        for K in itertools.combinations(range(d), r):
            assert_cdf_grid_bits(Reflected(ClaytonExtreme(d), K), axes)


def pointwise_quadrature(C, n, integrand):
    # the tensor Gauss-Legendre rule on grid_points, weights multiplied
    # axis by axis over meshgrids
    xs, ws = _gauss_nodes(n, 0.0, 1.0)
    pts = meshgrid_points([xs] * C.dim)
    w = np.ones(len(pts))
    for m in np.meshgrid(*([ws] * C.dim), indexing="ij"):
        w = w * m.ravel()
    return float(w @ integrand(pts)), len(pts)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_lattice_quadrature_matches_the_pointwise_rule_bit_for_bit(d):
    from mincop.concordance import (
        _normalised,
        _refined,
        pi_integral,
        spearman_normalization,
    )
    from mincop.transforms import survival

    C = ClaytonExtreme(d)
    rho_pts = lambda pts: 0.5 * (C.cdf_many(pts) + survival(C).cdf_many(pts))
    pi_pts = lambda pts: C.box_mass_many(pts, np.ones_like(pts))
    for nodes in (8, 24):
        coarse = max(4, nodes // 2)
        rho_inner = _refined(lambda n: pointwise_quadrature(C, n, rho_pts), nodes, coarse)
        want = _normalised("spearman_rho", d, rho_inner, spearman_normalization(d)).estimate
        assert spearman_rho(C, method="quadrature", quad_nodes=nodes).estimate == want
        want = _refined(lambda n: pointwise_quadrature(C, n, pi_pts), nodes, coarse)
        assert pi_integral(C, method="quadrature", quad_nodes=nodes).estimate == want


def test_segment_scan_makes_no_pointwise_cdf_call(monkeypatch):
    from mincop.negdep import tau_cm_defect

    C = mixture_all_reflections(3)
    calls = []
    cdf_many = SegmentCopula.cdf_many
    monkeypatch.setattr(
        SegmentCopula, "cdf_many", lambda self, U: calls.append(U.shape) or cdf_many(self, U)
    )
    defect, _, _ = tau_cm_defect(C)
    assert defect <= 1e-9
    assert calls == []


def test_grid_consumers_match_their_pointwise_formulas_bit_for_bit():
    # orthant masses with the signed inclusion-exclusion, and discretize's
    # alternating differences, over cdf_many on grid_points
    from mincop.core import _corner_masks
    from mincop.transforms import discretize, orthant_masses

    for C in (make_triangle_3d(), ClaytonExtreme(3), Reflected(ClaytonExtreme(3), [1])):
        cuts = grid_axes([C], 10)
        inner = [c[1:] for c in cuts]
        L = np.zeros([len(c) for c in cuts])
        L[(slice(1, None),) * 3] = C.cdf_many(grid_points(inner)).reshape([len(c) for c in inner])
        U = np.zeros(L.shape)
        for mask in _corner_masks(3):
            sign = -1.0 if (3 - sum(mask)) % 2 else 1.0
            U += sign * L[tuple(slice(-1, None) if m else slice(None) for m in mask)]
        got_L, got_U = orthant_masses(C, cuts)
        np.testing.assert_array_equal(got_L, L)
        np.testing.assert_array_equal(got_U, U)
        masses = C.cdf_many(grid_points(cuts)).reshape(L.shape)
        for ax in range(3):
            masses = np.diff(masses, axis=ax)
        np.testing.assert_array_equal(discretize(C, cuts).masses, np.clip(masses, 0.0, None))


# -- the whole-cube board moment against the general box path --------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_board_whole_cube_moment_matches_the_box_path_bit_for_bit(d):
    # a box a hair past the cube covers the same cells and takes the
    # general path: covered fraction, clipped midpoint, factor
    from mincop.transforms import discretize

    boards = [random_checkerboard(d, n, seed=s) for n in (3, 8) for s in range(3)]
    boards.append(refute_minimality(boards[0]).copula)  # irregular cuts
    rng = np.random.default_rng(d)
    for _ in range(3):  # random cuts
        cuts = [np.concatenate([[0.0], np.sort(rng.random(5)), [1.0]]) for _ in range(d)]
        boards.append(discretize(ClaytonExtreme(d) if d <= 3 else ProductCopula(d), cuts))
    lo, hi = np.zeros(d), np.full(d, np.nextafter(1.0, 2.0))
    for board in boards:
        for codes in itertools.product((0, MOMENT_V, MOMENT_1MV), repeat=d):
            fast = board.product_moment(np.zeros(d), np.ones(d), codes)
            assert fast == board.product_moment(lo, hi, codes)

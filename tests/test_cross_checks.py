"""Independent-route agreement checks: every exact path is confronted with
a second computation that shares none of its code (Monte Carlo on samplers,
tensor quadrature on cdfs, exact boards against analytic nodes)."""

import itertools

import numpy as np
import pytest

from mincop import (
    LowerFrechet2d,
    MixtureCopula,
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
    MOMENT_ONE,
    MOMENT_V,
    CheckerboardCopula,
    ClaytonExtreme,
    Copula,
    GlueProduct,
    ProductCopula,
    RefutedCopula,
    SegmentCopula,
    _gauss_nodes,
    _gauss_rule,
    _insert_cuts,
    grid_axes,
    grid_points,
    merge_cuts,
)
from mincop.errors import UnsupportedRepresentationError
from mincop.order import _classify, _combine, concordance_leq, pointwise_leq
from mincop.transforms import _split_cells, orthant_masses


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
    b = np.linspace(0.3, 0.6, d)  # a broadcast view as lo: one lo corner for every row
    for lo, hi in ((Lo, Hi), (zero_col, Hi), (np.broadcast_to(b, Hi.shape), np.maximum(Hi, b))):
        fast = C.box_mass_many(lo, hi)
        oracle = Copula._box_mass_lattice(C, lo.T, hi.T)
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
    return boards + [UpperFrechet(3), LowerFrechet2d(), Permuted(boards[1], [2, 0, 1])]


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
    # (lo faces, hi, the oracle's lo): the boxes, the origin as float faces,
    # and product_moment's one box as (1, d) broadcast views of lo and hi
    cases = [(Lo.T, Hi, Lo), ([0.0] * d, Hi, zero)]
    for lo, hi in zip(Lo[:20], Hi[:20]):
        lo1, hi1 = np.broadcast_to(lo, (1, d)), np.broadcast_to(hi, (1, d))
        cases.append((lo1.T, hi1, lo1))
    for lo, hi, oracle_lo in cases:
        interval = C._lattice_interval(lo, hi.T)
        for got, want in zip(interval, broadcast_param_interval(C, oracle_lo, hi)):
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
    # the first list keeps every distinct point
    kept = np.empty(0)
    for i, cuts in enumerate(cut_lists):
        new = np.unique(np.asarray(cuts, dtype=float))
        if i:
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


def test_merge_cuts_keeps_every_point_of_the_first_list():
    cuts = [0.0, 0.5, 0.5 + 5e-14, 0.5 + 5e-14, 1.0]
    assert merge_cuts(cuts, [0.5 + 2e-14]).tolist() == [0.0, 0.5, 0.5 + 5e-14, 1.0]


def random_board_cuts(rng):
    # strictly increasing cuts from 0 to 1, some pairs within CUT_GAP
    inner = rng.random(rng.integers(0, 8))
    inner = np.concatenate([inner, inner[:2] + rng.choice([5e-14, 1e-13, 2e-13], size=len(inner[:2]))])
    return np.unique(np.concatenate([[0.0, 1.0], inner[(inner > 0) & (inner < 1)]]))


def test_insert_cuts_matches_the_merge_bit_for_bit():
    # corners on a cut, within CUT_GAP of a cut or of each other, and just
    # past it; nothing inserted returns the board's array itself
    rng = np.random.default_rng(1)
    shifts = [0.0, 1e-14, -5e-14, 1e-13, -1e-13, 1.5e-13, 1e-12]
    for _ in range(3000):
        cuts = random_board_cuts(rng)
        x = rng.choice(cuts) if rng.random() < 0.5 else rng.random()
        x += rng.choice(shifts)
        y = x + rng.choice(shifts + [rng.random()]) if rng.random() < 0.5 else rng.choice(cuts)
        x, y = float(np.clip(x, 0.0, 1.0)), float(np.clip(y, 0.0, 1.0))
        got, want = _insert_cuts(cuts, (x, y)), merge_cuts(cuts, [x, y])
        np.testing.assert_array_equal(got, want)
        assert (got is cuts) == (len(want) == len(cuts))



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
                generic = Copula._box_mass_lattice(C, grid_points(lo_axes).T, pts.T).reshape(shape)
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


# -- the block loop against one kernel call on the whole lattice --------------


def shuffle_of_m(n, seed=1):
    # the cells (i, s_2(i), s_3(i))/n of two successive permutation draws,
    # each carrying its increasing diagonal at mass 1/n
    rng = np.random.default_rng(seed)
    starts = np.column_stack([np.arange(n), rng.permutation(n), rng.permutation(n)]) / n
    return SegmentCopula(starts, starts + 1.0 / n, np.full(n, 1.0 / n))


def block_loop_queries(d, seed):
    # lattices and a batch of at least three blocks each: random boxes, the
    # cdf's boxes (every lo the float 0.0) and survival boxes (every hi the
    # float 1.0) on a lattice, and random boxes on a batch (the faces a
    # batch's transpose, one array)
    from mincop.core import _lattice

    rng = np.random.default_rng(seed)
    hi = _lattice(lattice_axes(d, seed, [-(-3 * _BOX_ROWS // 13 ** (d - 1)) + 1] + [13] * (d - 1)))
    lo = [x * rng.random(x.shape) for x in hi]
    A, B = rng.random((2, 3 * _BOX_ROWS + 5, d))
    return [
        (lo, hi),
        ([0.0] * d, hi),
        ([1.0 - x for x in hi], [1.0] * d),
        (np.minimum(A, B).T, np.maximum(A, B).T),
    ]


def blocked_and_whole(C, lo, hi, monkeypatch):
    # the block loop's values, checked to come from three or more kernel
    # calls of at most _BOX_ROWS points that cover the lattice once, and the
    # values of one kernel call on the whole lattice
    kernel, sizes = type(C)._box_mass_lattice, []
    monkeypatch.setattr(
        type(C),
        "_box_mass_lattice",
        lambda self, l, h: sizes.append(np.broadcast(*l, *h).size) or kernel(self, l, h),
    )
    got = C._lattice_box_mass(lo, hi)
    monkeypatch.undo()
    assert len(sizes) >= 3 and max(sizes) <= _BOX_ROWS and sum(sizes) == got.size
    return got, kernel(C, lo, hi)


def segment_surgery_node():
    C = shuffle_of_m(8)
    pair = find_corner_pair(C)
    return RefutedCopula(C, pair.a, pair.b, pair.p)


BLOCK_LOOP_BITS = {
    "board": random_checkerboard(3, 4, seed=3),
    "clayton3": ClaytonExtreme(3),
    "clayton4": ClaytonExtreme(4),
    "reflected_clayton": Reflected(ClaytonExtreme(3), [0, 2]),
    "pi3": ProductCopula(3),
}
BLOCK_LOOP_ROUNDING = {
    "segments": shuffle_of_m(12),
    "glue_segment_half": GlueProduct(shuffle_a(), ProductCopula(1)),
    "reflected_segments": Reflected(make_triangle_3d(), [1]),
    "surgery_on_segments": segment_surgery_node(),
}


@pytest.mark.parametrize("C", BLOCK_LOOP_BITS.values(), ids=BLOCK_LOOP_BITS.keys())
def test_block_loop_matches_one_kernel_call_bit_for_bit(C, monkeypatch):
    # these kernels compute each point on its own, so cutting the lattice
    # into blocks cannot move a bit
    for lo, hi in block_loop_queries(C.dim, seed=100 + C.dim):
        np.testing.assert_array_equal(*blocked_and_whole(C, lo, hi, monkeypatch))


@pytest.mark.parametrize("C", BLOCK_LOOP_ROUNDING.values(), ids=BLOCK_LOOP_ROUNDING.keys())
def test_block_loop_matches_one_kernel_call_to_rounding(C, monkeypatch):
    # a segment kernel ends in the BLAS product masses @ lengths, whose
    # rounding of one column can depend on how many columns the call holds
    for lo, hi in block_loop_queries(C.dim, seed=110 + C.dim):
        got, want = blocked_and_whole(C, lo, hi, monkeypatch)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15


def test_segment_grid_memory_is_bounded_by_a_block():
    # the segment kernel holds a value per segment and point; folded over
    # the whole 65^3 lattice at once it peaked at ~254 MB (17 arrays of
    # segments x _BOX_ROWS doubles).  In blocks it holds the output and the
    # fold's two running bounds t0 and t1 at block size, with a third array
    # of headroom
    import tracemalloc

    C = shuffle_of_m(60)
    axes = [np.linspace(0.0, 1.0, 65)] * 3
    tracemalloc.start()
    try:
        C.cdf_grid(axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 65**3 * 8 + 3 * len(C.masses) * _BOX_ROWS * 8


@pytest.mark.parametrize("d", [3, 4])
def test_reflected_clayton_cdf_grid_matches_cdf_many_bit_for_bit(d):
    axes = lattice_axes(d, seed=40 + d)
    for r in range(d + 1):
        for K in itertools.combinations(range(d), r):
            assert_cdf_grid_bits(Reflected(ClaytonExtreme(d), K), axes)


# -- float box faces against the (N, d) faces they replace --


def materialised_faces(K, U):
    # a reflection's box faces written out as (N, d) arrays: lo = 1 - u on K
    # and 0 off K, hi = 1 on K and u off K
    on_K = np.isin(np.arange(U.shape[1]), K)
    Lo = 1.0 - U
    Lo[:, ~on_K] = 0.0
    return Lo, np.where(on_K, 1.0, U)


def face_batch(d, n, seed):
    # coordinates exactly 0 and 1, and whole rows at the cube's two corners
    U = np.random.default_rng(seed).random((n, d))
    U[::5, 0] = 0.0
    U[::7, -1] = 1.0
    U[::11] = 1.0
    U[::13] = 0.0
    return U


def assert_reflections_match_materialised_faces(C, U, axes, subsets):
    pts = grid_points(axes)
    shape = [len(a) for a in axes]
    for K in subsets:
        R = Reflected(C, K)
        np.testing.assert_array_equal(R.cdf_many(U), C.box_mass_many(*materialised_faces(K, U)))
        want = C.box_mass_many(*materialised_faces(K, pts)).reshape(shape)
        np.testing.assert_array_equal(R.cdf_grid(axes), want)


def all_subsets(d):
    return [list(K) for r in range(d + 1) for K in itertools.combinations(range(d), r)]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_clayton_float_faces_match_the_materialised_faces_bit_for_bit(d):
    # every reflection, a batch and a lattice with nodes at 0 and 1 and a
    # single-node axis; the survival copula (every face 1.0 or 1 - u) and
    # one reflected axis also on a batch of more than one block
    C = ClaytonExtreme(d)
    axes = lattice_axes(d, seed=50 + d, lengths=[4, 3, 1, 3, 2, 2][:d])
    assert_reflections_match_materialised_faces(C, face_batch(d, 300, seed=d), axes, all_subsets(d))
    U = face_batch(d, _BOX_ROWS + 3, seed=d)
    for K in ([0], list(range(d))):
        np.testing.assert_array_equal(
            Reflected(C, K).cdf_many(U), C.box_mass_many(*materialised_faces(K, U))
        )
    np.testing.assert_array_equal(C.survival_many(U), C.box_mass_many(1.0 - U, np.ones_like(U)))


def test_default_box_mass_lattice_keeps_the_materialised_faces_bit_for_bit():
    # M has no per-axis kernel and writes the faces out; a surgery node hands
    # its float faces through its seven boxes to a board, which writes them
    # out: either way the bits of box_mass_many on the (N, d) arrays
    board = random_checkerboard(3, 4, seed=3)
    pair = find_corner_pair(board)
    axes = lattice_axes(3, seed=60, lengths=[4, 3, 2])
    U = face_batch(3, 300, seed=60)
    for C in (UpperFrechet(3), RefutedCopula(board, pair.a, pair.b, pair.p)):
        assert_reflections_match_materialised_faces(C, U, axes, all_subsets(3))
        np.testing.assert_array_equal(C.survival_many(U), C.box_mass_many(1.0 - U, np.ones_like(U)))
        lo_axes = [a * 0.5 for a in axes]
        want = C.box_mass_many(grid_points(lo_axes), grid_points(axes)).reshape([4, 3, 2])
        np.testing.assert_array_equal(C.box_mass_grid(lo_axes, axes), want)


@pytest.mark.parametrize("C", [make_triangle_3d(), mixture_all_reflections(4)],
                         ids=["triangle", "all_reflections_4"])
def test_segment_float_faces_match_the_materialised_faces_bit_for_bit(C):
    d = C.dim
    axes = lattice_axes(d, seed=70 + d, lengths=[4, 3, 1, 3][:d])
    U = face_batch(d, 300, seed=70 + d)
    assert_reflections_match_materialised_faces(C, U, axes, [[0], [0, 1], list(range(d))])
    np.testing.assert_array_equal(C.survival_many(U), C.box_mass_many(1.0 - U, np.ones_like(U)))


# -- a reflected box as one inner box against the inclusion-exclusion --

REFLECTED_BOX_INNERS = {
    **{f"clayton{d}": ClaytonExtreme(d) for d in (3, 4, 5)},
    "triangle": make_triangle_3d(),
    "board": random_checkerboard(3, 4, seed=3),
    "M3": UpperFrechet(3),
}


@pytest.mark.parametrize("C", REFLECTED_BOX_INNERS.values(), ids=REFLECTED_BOX_INNERS.keys())
def test_reflected_box_matches_the_inclusion_exclusion_over_its_cdf(C):
    # every K: nu_K C's box masses and survival values, one box of C each,
    # against the generic inclusion-exclusion over the reflection's own cdf
    d = C.dim
    Lo, Hi = generic_boxes(d, seed=80 + d)
    U = face_batch(d, 300, seed=80 + d)
    for K in all_subsets(d):
        R = Reflected(C, K)
        oracle = Copula._box_mass_lattice(R, Lo.T, Hi.T)
        assert np.max(np.abs(R.box_mass_many(Lo, Hi) - oracle)) <= 1e-13
        oracle = Copula._box_mass_lattice(R, (1.0 - U).T, [1.0] * d)
        assert np.max(np.abs(R.survival_many(U) - oracle)) <= 1e-13


def test_a_reflected_batch_is_one_inner_box_per_row(monkeypatch):
    # one call of the inner kernel per query, with one box per row, not the
    # 2^d stacked corners of the reflection's cdf
    shapes = []
    kernel = ClaytonExtreme._box_mass_lattice
    monkeypatch.setattr(
        ClaytonExtreme,
        "_box_mass_lattice",
        lambda self, lo, hi: shapes.append(np.broadcast(*lo, *hi).shape) or kernel(self, lo, hi),
    )
    d, n = 4, 50
    Lo, Hi = generic_boxes(d, seed=90)
    Lo, Hi = Lo[:n], Hi[:n]
    U = face_batch(d, n, seed=90)
    for K in all_subsets(d):
        R = Reflected(ClaytonExtreme(d), K)
        for query in (lambda: R.box_mass_many(Lo, Hi), lambda: R.survival_many(U)):
            shapes.clear()
            query()
            assert shapes == [(n,)]


# -- the surgery node's seven boxes against its pointwise formulas ----------


def pointwise_surgery_cdf(D, U):
    # D = C - 2p C_1 + 2p C_2 at each row of U, every corner function one
    # inner cdf_many or box_mass_many call on (N, d) points
    inner, a, b, p = D.inner, D.a, D.b, D.p
    n, d = U.shape
    B = np.broadcast_to(b, U.shape)
    ca = inner.cdf_many(np.minimum(U, a)) / p
    cb = inner.box_mass_many(B, np.maximum(U, b)) / p
    c1 = 0.5 * (ca + cb)
    w = np.tile(a, (n, 1))
    w[:, 0] = np.minimum(U[:, 0], a[0])
    a1 = inner.cdf_many(w) / p
    w = np.minimum(U, a)
    w[:, 0] = a[0]
    aR = inner.cdf_many(w) / p
    w = np.ones((n, d))
    w[:, 0] = np.maximum(U[:, 0], b[0])
    b1 = inner.box_mass_many(B, w) / p
    w = np.maximum(U, b)
    w[:, 0] = 1.0
    bR = inner.box_mass_many(B, w) / p
    c2 = 0.5 * (a1 * bR + b1 * aR)
    return inner.cdf_many(U) - 2.0 * p * (c1 - c2)


def vector_surgery_moment(D, lo, hi, codes):
    # D's product moment from lo/hi vectors edited piece by piece
    inner, a, b, p = D.inner, D.a, D.b, D.p
    lo, hi, codes = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), list(codes)
    ones = [MOMENT_ONE] * D.dim
    total = inner.product_moment(lo, hi, codes)
    total -= inner.product_moment(lo, np.minimum(hi, a), codes)
    total -= inner.product_moment(np.maximum(lo, b), hi, codes)
    first_codes = [codes[0]] + ones[1:]
    rest_codes = [MOMENT_ONE] + codes[1:]
    lo_a1, hi_a1 = np.zeros(D.dim), a.copy()
    lo_a1[0], hi_a1[0] = lo[0], min(hi[0], a[0])
    lo_b1, hi_b1 = b.copy(), np.ones(D.dim)
    lo_b1[0], hi_b1[0] = max(lo[0], b[0]), hi[0]
    lo_aR, hi_aR = lo.copy(), np.minimum(hi, a)
    lo_aR[0], hi_aR[0] = 0.0, a[0]
    lo_bR, hi_bR = np.maximum(lo, b), hi.copy()
    lo_bR[0], hi_bR[0] = b[0], 1.0
    total += (1.0 / p) * (
        inner.product_moment(lo_a1, hi_a1, first_codes)
        * inner.product_moment(lo_bR, hi_bR, rest_codes)
        + inner.product_moment(lo_b1, hi_b1, first_codes)
        * inner.product_moment(lo_aR, hi_aR, rest_codes)
    )
    return float(total)


def surgery_node(C):
    pair = find_corner_pair(C)
    return RefutedCopula(C, pair.a, pair.b, pair.p)


SURGERY_INNERS = {
    "board2": random_checkerboard(2, 4, seed=2),
    "board3": random_checkerboard(3, 4, seed=3),
    "M3_segment": make_basic("upper_frechet", 3),
    "M3_analytic": UpperFrechet(3),
    "Pi3": ProductCopula(3),
    "mixture_M2_Pi2": MixtureCopula([(UpperFrechet(2), 0.5), (ProductCopula(2), 0.5)]),
    "reflected_clayton": Reflected(ClaytonExtreme(3), [0]),
}


@pytest.mark.parametrize("C", SURGERY_INNERS.values(), ids=SURGERY_INNERS.keys())
def test_surgery_cdf_matches_the_pointwise_formula_bit_for_bit(C):
    D = surgery_node(C)
    d = D.dim
    U = face_batch(d, 300, seed=100 + d)
    np.testing.assert_array_equal(D.cdf_many(U), pointwise_surgery_cdf(D, U))
    for axes in (grid_axes([D], 8), lattice_axes(d, seed=100 + d)):
        want = pointwise_surgery_cdf(D, grid_points(axes)).reshape([len(a) for a in axes])
        np.testing.assert_array_equal(D.cdf_grid(axes), want)


@pytest.mark.parametrize("C", SURGERY_INNERS.values(), ids=SURGERY_INNERS.keys())
def test_surgery_moment_matches_the_vector_formula_bit_for_bit(C):
    # sub-boxes that miss a corner, straddle it or hold it, the whole cube
    # and boxes from the origin, under every code of every axis
    D = surgery_node(C)
    d = D.dim
    rng = np.random.default_rng(d)
    A, B = rng.random((2, 8, d))
    boxes = list(zip(np.minimum(A, B), np.maximum(A, B)))
    boxes += [(np.zeros(d), np.ones(d)), (np.zeros(d), D.a), (D.b, np.ones(d)), (np.zeros(d), B[0])]
    for lo, hi in boxes:
        for codes in itertools.product((MOMENT_ONE, MOMENT_V, MOMENT_1MV), repeat=d):
            try:
                want = vector_surgery_moment(D, lo, hi, codes)
            except UnsupportedRepresentationError:
                with pytest.raises(UnsupportedRepresentationError):
                    D.product_moment(lo, hi, codes)
                continue
            assert D.product_moment(lo, hi, codes) == want


@pytest.fixture(scope="module")
def surgery_box_nodes():
    # a board, a segment copula, the reflected Clayton, and the witness of a
    # witness: a surgery node whose inner node gets all-float boxes
    witness = refute_minimality(Reflected(ClaytonExtreme(3), [0])).copula
    return {
        "board": surgery_node(random_checkerboard(3, 4, seed=3)),
        "M3_segment": surgery_node(make_basic("upper_frechet", 3)),
        "reflected_clayton": witness,
        "witness_of_witness": refute_minimality(witness).copula,
    }


@pytest.mark.parametrize("name", ["board", "M3_segment", "reflected_clayton", "witness_of_witness"])
def test_surgery_box_matches_the_inclusion_exclusion_over_its_cdf(surgery_box_nodes, name):
    # box masses and survival values as seven inner boxes, against the
    # generic inclusion-exclusion over D's own cdf
    D = surgery_box_nodes[name]
    assert isinstance(D, RefutedCopula)
    d = D.dim
    Lo, Hi = generic_boxes(d, seed=110 + d)
    U = face_batch(d, 300, seed=110 + d)
    oracle = Copula._box_mass_lattice(D, Lo.T, Hi.T)
    assert np.max(np.abs(D.box_mass_many(Lo, Hi) - oracle)) <= 1e-13
    oracle = Copula._box_mass_lattice(D, (1.0 - U).T, [1.0] * d)
    assert np.max(np.abs(D.survival_many(U) - oracle)) <= 1e-13


@pytest.mark.parametrize("d", [3, 4, 5])
def test_clayton_lattice_of_no_axes_is_one_box(d):
    # every face a float: one value, the cdf or the box mass of that box
    C = ClaytonExtreme(d)
    rng = np.random.default_rng(d)
    for _ in range(20):
        lo, hi = np.sort(rng.random((2, d)) ** (1.0 / d), axis=0).tolist()
        got = C._box_mass_lattice([0.0] * d, hi)
        assert got.shape == (1,) and got[0] == C.cdf(hi)
        got = C._box_mass_lattice(lo, hi)
        assert got.shape == (1,) and got[0] == C.box_mass(lo, hi)


@pytest.mark.parametrize("m", [1, 3, 8, 33])
def test_gauss_rule_is_shared_read_only_with_numpys_bits(m):
    x, w = _gauss_rule(m)
    assert _gauss_rule(m)[0] is x and _gauss_rule(m)[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    want = np.polynomial.legendre.leggauss(m)
    np.testing.assert_array_equal(x, want[0])
    np.testing.assert_array_equal(w, want[1])


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


# -- the order of two boards on their mass difference against the orthant masses --


def orthant_order(C, D):
    """(pointwise, concordance) of two boards from each one's orthant-mass
    tensors on the shared cuts, subtracted: the order check as it read
    boards before the mass difference."""
    cuts = [c if c is d else merge_cuts(c, d) for c, d in zip(C.cuts, D.cuts)]
    desc = f"shared checkerboard grid, sizes {[len(c) for c in cuts]}"
    lc, uc = orthant_masses(C, cuts)
    ld, ud = orthant_masses(D, cuts)
    flip = (slice(None, None, -1),) * C.dim
    reflected = [1.0 - c[::-1] for c in cuts]
    lower = _classify(lc - ld, cuts, desc, True, 1e-9)
    upper = _classify(uc[flip] - ud[flip], reflected, desc, True, 1e-9)
    return lower, _combine(lower, upper, 1e-9)


def board_pairs():
    close = [0.0, 0.25, 0.5, 0.50000000000005, 1.0]
    masses = np.diag([0.25, 0.25, 5e-14, 0.49999999999995])
    close_board = CheckerboardCopula([close, close], masses)
    pairs = {}
    for d, n, seed in ((2, 8, 0), (2, 16, 1), (3, 6, 2), (3, 8, 3), (4, 4, 4)):
        C = random_checkerboard(d, n, seed=seed)
        # the same cut arrays: an unrelated board, and the refuter's pair
        other = random_checkerboard(d, n, seed=seed + 10)
        pairs[f"same-d{d}n{n}"] = (C, CheckerboardCopula(C.cuts, other.masses))
        D = refute_minimality(C).copula
        refined = CheckerboardCopula(D.cuts, _split_cells(C, D.cuts))
        pairs[f"surgery-d{d}n{n}"] = (D, refined)
        # merged cuts: another grid, and the witness against its input
        pairs[f"merged-d{d}n{n}"] = (C, random_checkerboard(d, n - 1, seed=seed + 20))
        pairs[f"witness-d{d}n{n}"] = (D, C)
    # equal boards on copies of the cut arrays
    pairs["equal"] = (C, CheckerboardCopula([c.copy() for c in C.cuts], C.masses))
    # a cut within CUT_GAP of the other board's is merged away
    pi = random_checkerboard(2, 4, seed=5)
    pairs["close-cuts"] = (close_board, pi)
    pairs["close-cuts-swapped"] = (pi, close_board)
    return pairs


BOARD_PAIRS = board_pairs()


@pytest.mark.parametrize("name", list(BOARD_PAIRS))
def test_board_order_on_the_mass_difference_matches_the_orthant_masses(name):
    C, D = BOARD_PAIRS[name]
    for fast, oracle in zip((pointwise_leq(C, D), concordance_leq(C, D)), orthant_order(C, D)):
        assert fast.relation == oracle.relation
        assert fast.witness_points == oracle.witness_points
        assert (fast.exact, fast.grid_used) == (oracle.exact, oracle.grid_used)
        assert abs(fast.max_violation - oracle.max_violation) <= 2.3e-16

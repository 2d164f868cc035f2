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
    ProductCopula,
    RefutedCopula,
    SegmentCopula,
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


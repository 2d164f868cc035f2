"""Property-based invariants over randomly generated checkerboards."""

import numpy as np
from hypothesis import given, settings, strategies as st

from mincop import (
    CheckerboardCopula,
    RefutationCertificate,
    Relation,
    concordance_leq,
    kendall_tau,
    make_mixture,
    make_reflected_upper,
    random_checkerboard,
    reflect,
    reflection_sum,
    refute_minimality,
    spearman_rho,
    survival,
    tau_cm_defect,
)
from mincop.core import SegmentCopula, grid_points

boards = st.builds(
    random_checkerboard,
    d=st.integers(min_value=2, max_value=3),
    n=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
)


@st.composite
def anti_diagonal_boards(draw):
    """W's board on random cuts: cell (i, n-1-i) holds the first axis's
    i-th width, so the second axis's widths run backwards.  No vertex has
    mass in both of its corner boxes."""
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6)))
    cuts = np.concatenate([[0.0], np.cumsum(w) / w.sum()])
    cuts[-1] = 1.0
    n = len(w)
    masses = np.zeros((n, n))
    masses[np.arange(n), n - 1 - np.arange(n)] = np.diff(cuts)
    return CheckerboardCopula([cuts, 1.0 - cuts[::-1]], masses)


reflection_sets = st.lists(st.integers(min_value=0, max_value=2), max_size=3).map(set)


@settings(max_examples=25, deadline=None)
@given(boards, reflection_sets)
def test_reflection_involution(board, K):
    K = {k for k in K if k < board.dim}
    twice = reflect(reflect(board, K), K)
    pts = grid_points([np.linspace(0, 1, 7)] * board.dim)
    assert np.max(np.abs(twice.cdf_many(pts) - board.cdf_many(pts))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(boards)
def test_cdf_within_frechet_envelope(board):
    pts = grid_points([np.linspace(0, 1, 6)] * board.dim)
    vals = board.cdf_many(pts)
    assert np.all(vals <= pts.min(axis=1) + 1e-12)
    assert np.all(vals >= np.clip(pts.sum(axis=1) + 1 - board.dim, 0, None) - 1e-12)


@settings(max_examples=20, deadline=None)
@given(boards)
def test_tau_range(board):
    tau = kendall_tau(board).value
    assert -1.0 / (2 ** (board.dim - 1) - 1) - 1e-9 <= tau <= 1.0 + 1e-9


@settings(max_examples=15, deadline=None)
@given(boards)
def test_reflection_sums_vanish(board):
    assert abs(reflection_sum(kendall_tau, board)) <= 1e-9
    assert abs(reflection_sum(spearman_rho, board)) <= 1e-9


@settings(max_examples=15, deadline=None)
@given(boards)
def test_survival_leaves_functionals_fixed(board):
    flipped = survival(board)
    assert abs(kendall_tau(flipped).value - kendall_tau(board).value) <= 1e-9
    assert abs(spearman_rho(flipped).value - spearman_rho(board).value) <= 1e-9


@settings(max_examples=10, deadline=None)
@given(boards)
def test_defect_survival_symmetry(board):
    d1, _, _ = tau_cm_defect(board)
    d2, _, _ = tau_cm_defect(survival(board))
    assert abs(d1 - d2) <= 1e-9


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=3),
)
def test_refuter_sound_or_tau_cm(seed, d):
    board = random_checkerboard(d, 6, seed=seed)
    cert = refute_minimality(board)
    if isinstance(cert, RefutationCertificate):
        assert cert.order_check.relation == Relation.STRICTLY_BELOW
        assert cert.rho_drop > 0
        # the strictly smaller copula really is concordance-below the input
        again = concordance_leq(cert.copula, board)
        assert again.relation == Relation.STRICTLY_BELOW
    else:
        assert cert.defect <= 1e-9


@settings(max_examples=20, deadline=None)
@given(st.one_of(boards, anti_diagonal_boards()))
def test_every_board_is_refuted(board):
    # every board has a density, so none is tau-CM: a board with no vertex
    # pair is refuted at its cell midpoints
    cert = refute_minimality(board)
    assert isinstance(cert, RefutationCertificate) and cert.passed


@st.composite
def reflections_with_a_shuffle(draw):
    """nu_K(M) in d = 3 or 4 (K a nonempty proper subset), mixed with a
    small shuffle of M: n comonotone diagonals of the cubes of side 1/n
    that per-axis permutations of the blocks place, so its margins are
    uniform.  Each diagonal holds two points strictly ordered on every
    axis."""
    d = draw(st.integers(3, 4))
    K = draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=d - 1))
    n = draw(st.integers(1, 4))
    blocks = [draw(st.permutations(range(n))) for _ in range(d)]
    starts = np.array(blocks, dtype=float).T / n
    shuffle = SegmentCopula(starts, starts + 1.0 / n, np.full(n, 1.0 / n))
    w = draw(st.floats(1e-4, 0.1))
    return make_mixture([(make_reflected_upper(d, sorted(K)), 1.0 - w), (shuffle, w)])


@settings(max_examples=20, deadline=None)
@given(reflections_with_a_shuffle())
def test_a_shuffle_of_m_piece_refutes_a_reflection_of_m(C):
    # nu_K(M) alone is tau-CM; any weight on a comonotone piece is not
    cert = refute_minimality(C)
    assert isinstance(cert, RefutationCertificate) and cert.passed
    assert cert.order_check.relation == Relation.STRICTLY_BELOW

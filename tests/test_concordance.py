"""Kendall's tau, Spearman's rho, the Pi-integral and the four
measure-of-concordance axioms as numeric checks."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from mincop import (
    ClaytonExtreme,
    InputError,
    Permuted,
    Reflected,
    UnsupportedRepresentationError,
    as_board,
    discretize,
    kendall_tau,
    make_basic,
    make_glue_product,
    make_mixture,
    make_reflected_upper,
    make_triangle_3d,
    mixture_all_reflections,
    permute,
    pi_integral,
    random_checkerboard,
    reflection_sum,
    refute_minimality,
    sample,
    shuffle_a,
    shuffle_b,
    spearman_rho,
    survival,
)
from mincop import concordance
from mincop.concordance import kendall_integral, kendall_normalization, spearman_normalization
from mincop.core import _BOX_ROWS, RefutedCopula


def kendall_min(d):
    return -1.0 / (2 ** (d - 1) - 1)


# -- Kendall's tau -------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_tau_of_m_is_one(d):
    rep = kendall_tau(make_basic("upper_frechet", d))
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    assert rep.normalization == pytest.approx(kendall_normalization(d))


def test_tau_of_w_is_minus_one():
    assert kendall_tau(make_basic("lower_frechet_2d", 2)).value == pytest.approx(
        -1.0, abs=1e-12
    )


def test_tau_of_independence_is_zero():
    assert kendall_tau(make_basic("product", 2)).value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_tau_minimum_attained_by_reflected_upper(d):
    rep = kendall_tau(make_reflected_upper(d, [0]), method="segment_quadrature")
    assert rep.value == pytest.approx(kendall_min(d), abs=1e-9)
    assert rep.estimate.error_bound <= 1e-9


def test_tau_shuffles_agree():
    tA = kendall_tau(shuffle_a())
    tB = kendall_tau(shuffle_b())
    assert tA.value == pytest.approx(tB.value, abs=1e-9)
    assert tA.value == pytest.approx(0.0, abs=1e-9)


def test_tau_exact_checkerboard_requires_checkerboard():
    # a segment copula has no exact Kendall path under either name; Pi's
    # 2^-d is exact, as "auto" reports it
    for method in ("exact", "exact_checkerboard"):
        with pytest.raises(UnsupportedRepresentationError):
            kendall_tau(make_triangle_3d(), method=method)
    rep = kendall_tau(make_basic("product", 2), method="exact")
    assert rep.value == 0.0 and rep.estimate.method == "exact"


def test_tau_reads_the_method_names_rho_and_pi_read():
    board = random_checkerboard(3, 4, seed=0)
    exact = kendall_tau(board, method="exact")
    assert exact.value == kendall_tau(board, method="exact_checkerboard").value
    tri = make_triangle_3d()
    assert kendall_tau(tri, method="quadrature").value == kendall_tau(tri).value
    with pytest.raises(InputError, match="exact_checkerboard.*monte_carlo"):
        kendall_tau(tri, method="nonsense")


def test_simpson_rules_share_one_cdf_evaluation_per_segment(monkeypatch):
    # the half-panel rule reads every second full-panel node, so each
    # segment's cdf is evaluated once; the oracle below evaluates the half
    # rule on its own nodes
    C, panels = mixture_all_reflections(3), 6
    sizes, cdf_many = [], C.cdf_many
    monkeypatch.setattr(C, "cdf_many", lambda U: sizes.append(len(U)) or cdf_many(U))
    est = kendall_integral(C, method="segment_quadrature", panels=panels)
    monkeypatch.undo()
    assert sizes == [2 * panels + 1] * len(C.masses)
    t = np.linspace(0.0, 1.0, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w /= 3.0 * panels
    half = sum(m * float(w @ C.cdf_many(a + t[:, None] * (b - a)))
               for a, b, m in zip(C.starts, C.ends, C.masses))
    assert abs(abs(est.value - half) - est.error_bound) <= 1e-15
    # an odd panel count has no half rule on the same nodes
    with pytest.raises(InputError, match="even"):
        kendall_integral(C, method="segment_quadrature", panels=7)


def test_tau_monte_carlo_within_its_own_bound():
    C = random_checkerboard(2, 6, seed=0)
    exact = kendall_tau(C).value
    mc = kendall_tau(C, method="monte_carlo", samples=200_000, seed=1)
    assert abs(mc.value - exact) <= mc.estimate.error_bound + 1e-3


def test_tau_glue_product_rule():
    W = make_basic("lower_frechet_2d", 2)
    M2 = make_basic("upper_frechet", 2)
    glue = make_glue_product(W, M2)
    # int E dQ^E = 0 * 1/2 = 0, so tau = -1/(2^3 - 1)
    assert kendall_tau(glue).value == pytest.approx(kendall_min(4), abs=1e-12)


def test_kendall_integral_checkerboard_against_monte_carlo():
    C = random_checkerboard(2, 5, seed=7)
    exact = kendall_integral(C).value
    pts = sample(C, seed=3, n=200_000)
    mc = C.cdf_many(pts).mean()
    assert abs(exact - mc) < 3e-3


# -- Spearman's rho ------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rho_of_m_is_one(d):
    assert spearman_rho(make_basic("upper_frechet", d)).value == pytest.approx(
        1.0, abs=1e-12
    )


def test_rho_of_w_is_minus_one():
    assert spearman_rho(make_basic("lower_frechet_2d", 2)).value == pytest.approx(
        -1.0, abs=1e-12
    )


def test_rho_triangle_minimum():
    assert spearman_rho(make_triangle_3d()).value == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize(
    "d,expected",
    [(3, -1 / 3), (4, -1 / 11), (5, 1 / 65)],
)
def test_rho_nu1_closed_forms(d, expected):
    assert spearman_rho(make_reflected_upper(d, [0])).value == pytest.approx(
        expected, abs=1e-12
    )


@pytest.mark.parametrize("d,expected", [(3, -1 / 3), (4, -7 / 33), (5, -7 / 65)])
def test_rho_nu12_closed_forms(d, expected):
    assert spearman_rho(make_reflected_upper(d, [0, 1])).value == pytest.approx(
        expected, abs=1e-12
    )


def test_rho_quadrature_fallback_matches_exact():
    # Clayton has no exact moment path; quadrature should approach the
    # discretized-exact value
    C = make_basic("clayton_extreme", 2)
    W = make_basic("lower_frechet_2d", 2)
    rep = spearman_rho(C, quad_nodes=48)
    assert rep.estimate.method == "quadrature"
    assert rep.value == pytest.approx(spearman_rho(W).value, abs=5e-3)


def test_rho_exact_for_checkerboards():
    C = random_checkerboard(3, 4, seed=2)
    exact = spearman_rho(C)
    assert exact.estimate.method == "exact"
    quad = spearman_rho(discretize(C, list(C.cuts)), method="quadrature", quad_nodes=32)
    assert quad.value == pytest.approx(exact.value, abs=5e-3)


def test_rho_strictly_order_preserving_on_shuffles():
    # shuffle_a strictly below shuffle_b: rho must separate them, tau must not
    rA, rB = spearman_rho(shuffle_a()).value, spearman_rho(shuffle_b()).value
    assert rA < rB
    assert kendall_tau(shuffle_a()).value <= kendall_tau(shuffle_b()).value + 1e-12


# -- Pi-integral ---------------------------------------------------------


def test_pi_integral_values():
    assert pi_integral(make_basic("product", 3)).value == pytest.approx(1 / 8, abs=1e-12)
    assert pi_integral(make_basic("upper_frechet", 2)).value == pytest.approx(
        1 / 3, abs=1e-12
    )
    assert pi_integral(make_basic("lower_frechet_2d", 2)).value == pytest.approx(
        1 / 6, abs=1e-12
    )


def test_pi_integral_strictly_separates_ordered_pair():
    assert pi_integral(shuffle_a()).value < pi_integral(shuffle_b()).value


# -- the measure-of-concordance axioms ------------------------------------


def test_reflection_sum_vanishes_on_boards():
    board = random_checkerboard(3, 6, seed=11)
    assert abs(reflection_sum(kendall_tau, board)) <= 1e-9
    assert abs(reflection_sum(spearman_rho, board)) <= 1e-9


def test_reflection_sum_product_exact_zero():
    Pi = make_basic("product", 2)
    assert reflection_sum(spearman_rho, Pi) == pytest.approx(0.0, abs=1e-12)


def test_reflection_sum_discretized_m():
    board = discretize(make_basic("upper_frechet", 2), 16)
    assert abs(reflection_sum(kendall_tau, board)) <= 1e-9


def test_survival_invariance():
    for seed in range(3):
        C = random_checkerboard(2, 6, seed=seed)
        assert kendall_tau(survival(C)).value == pytest.approx(
            kendall_tau(C).value, abs=1e-9
        )
        assert spearman_rho(survival(C)).value == pytest.approx(
            spearman_rho(C).value, abs=1e-9
        )


def test_permutation_invariance():
    C = random_checkerboard(3, 4, seed=13)
    for sigma in ([1, 0, 2], [2, 0, 1]):
        assert spearman_rho(permute(C, sigma)).value == pytest.approx(
            spearman_rho(C).value, abs=1e-9
        )


def test_monotone_on_ordered_checkerboards():
    # discretized shuffles share a grid and stay strictly ordered
    A = discretize(shuffle_a(), 8)
    B = discretize(shuffle_b(), 8)
    assert spearman_rho(A).value < spearman_rho(B).value
    assert kendall_tau(A).value <= kendall_tau(B).value + 1e-12


def test_tau_cm_members_sit_at_kendall_minimum():
    # grid tau-CM certificate implies int C dQ^C = 0 implies the minimum
    for C in (
        make_reflected_upper(3, [0]),
        make_triangle_3d(),
        make_mixture(
            [(make_reflected_upper(2, [0]), 0.5), (make_reflected_upper(2, [1]), 0.5)]
        ),
    ):
        assert kendall_tau(C).value == pytest.approx(kendall_min(C.dim), abs=1e-9)


@pytest.mark.parametrize("functional", [spearman_rho, pi_integral])
def test_moment_functionals_reject_unknown_methods(functional):
    board = random_checkerboard(2, 4, seed=0)
    with pytest.raises(InputError, match="exact_checkerboard.*monte_carlo"):
        functional(board, method="nonsense")
    # every name the CLI passes to all three functionals is still accepted;
    # the checkerboard and segment names read as exact and quadrature
    exact = functional(board, method="exact").value
    assert functional(board, method="exact_checkerboard").estimate.method == "exact"
    assert functional(board, method="exact_checkerboard").value == exact
    quad = functional(board, method="segment_quadrature")
    assert quad.estimate.method == "quadrature"
    assert quad.value == functional(board, method="quadrature").value
    mc = functional(board, method="monte_carlo", samples=20_000)
    assert mc.estimate.method == "monte_carlo"
    assert abs(mc.value - exact) <= mc.estimate.error_bound


@pytest.mark.parametrize("functional", [kendall_tau, spearman_rho, pi_integral])
@pytest.mark.parametrize("samples", [-5, 0, 1, 2.0, True])
def test_monte_carlo_needs_an_integer_of_at_least_two_samples(functional, samples):
    # checked before any draw, whatever method would serve the call
    C = make_basic("upper_frechet", 3)
    for method in ("auto", "monte_carlo"):
        with pytest.raises(InputError, match="samples must be an integer >= 2"):
            functional(C, method=method, samples=samples)
    assert functional(C, method="monte_carlo", samples=2).estimate.samples_or_nodes == 2


# exact rationals for the extreme Clayton from Dirichlet moments of its
# simplex representation U_k = (1 - S_k)^{d-1}, S ~ Dirichlet(1, ..., 1)
# (McNeil & Neslehova 2009, Ann. Statist. 37(5B))
CLAYTON_EXACT = [
    (pi_integral, 3, 29 / 504),
    (pi_integral, 4, 312691 / 15288000),
    (spearman_rho, 3, -7 / 15),
    (spearman_rho, 4, -1987203 / 7707700),
    (spearman_rho, 5, -1641602111 / 11033397375),
]


@pytest.mark.parametrize("functional, d, exact", CLAYTON_EXACT)
def test_clayton_auto_estimates_bound_the_exact_value(functional, d, exact):
    # the reported error bound must hold on its own, with no slack
    rep = functional(ClaytonExtreme(d))
    assert abs(rep.value - exact) <= rep.estimate.error_bound


# the same auto estimates' value and error bound, to the last bit: the
# kernel's float box faces and narrow corners add the values the (N, d)
# faces of ones gave, in the same order
CLAYTON_AUTO_BITS = [
    (spearman_rho, 3, "-0.4666692848228805", "2.9112622717542003e-05"),
    (spearman_rho, 4, "-0.25782105620585155", "1.5978635096699804e-05"),
    (spearman_rho, 5, "-0.14890553545484092", "0.0008310182626551846"),
    (pi_integral, 3, "0.057538888147330804", "8.636681043804051e-06"),
    (pi_integral, 4, "0.020453206960497194", "4.403761280222934e-06"),
    (pi_integral, 5, "0.0073632694272287415", "9.226177727197651e-05"),
]


@pytest.mark.parametrize("functional, d, value, bound", CLAYTON_AUTO_BITS)
def test_clayton_auto_estimates_keep_their_bits(functional, d, value, bound):
    est = functional(ClaytonExtreme(d)).estimate
    assert (repr(float(est.value)), repr(float(est.error_bound))) == (value, bound)


# -- one method dispatch ---------------------------------------------------


def dispatch_inputs():
    clayton = ClaytonExtreme(3)
    witness = refute_minimality(make_basic("upper_frechet", 2)).copula
    assert isinstance(witness, RefutedCopula)
    return {
        "board_d3": random_checkerboard(3, 4, seed=5),
        "pi_2": make_basic("product", 2),
        "pi_3": make_basic("product", 3),
        "m3_segment": make_basic("upper_frechet", 3),
        "m3_analytic": make_basic("upper_frechet", 3, "analytic"),
        "w_analytic": make_basic("lower_frechet_2d", 2, "analytic"),
        "triangle": make_triangle_3d(),
        "clayton_3": clayton,
        "clayton_4": ClaytonExtreme(4),
        "clayton_5": ClaytonExtreme(5),
        "glue_shuffle_a_pi1": make_glue_product(shuffle_a(), make_basic("product", 1)),
        "glue_w_m2": make_glue_product(
            make_basic("lower_frechet_2d", 2), make_basic("upper_frechet", 2)
        ),
        "glue_boards": make_glue_product(
            random_checkerboard(2, 4, 1), random_checkerboard(2, 4, 2)
        ),
        "mixture_m2_pi2": make_mixture(
            [(make_basic("upper_frechet", 2), 0.5), (make_basic("product", 2), 0.5)]
        ),
        "nu1_m_d5": make_reflected_upper(5, [0]),
        "reflected_clayton": Reflected(clayton, [0]),
        "permuted_clayton": Permuted(clayton, [1, 2, 0]),
        "refuted_witness": witness,
    }


def report_bits(rep):
    est = rep.estimate
    return (
        float(est.value).hex(),
        est.method,
        float(est.error_bound).hex(),
        est.samples_or_nodes,
    )


@pytest.mark.parametrize("name", sorted(dispatch_inputs()))
def test_named_method_reproduces_auto(name):
    # asking for the method "auto" reports must give the same estimate, bit
    # for bit; where "auto" finds no path, no named method finds one either
    C = dispatch_inputs()[name]
    for functional in (kendall_tau, spearman_rho, pi_integral):
        try:
            auto = functional(C, samples=20_000)
        except UnsupportedRepresentationError:
            for method in ("exact", "quadrature", "monte_carlo"):
                with pytest.raises(UnsupportedRepresentationError):
                    functional(C, method=method, samples=20_000)
            continue
        named = functional(C, method=auto.estimate.method, samples=20_000)
        assert report_bits(named) == report_bits(auto), functional.__name__


@pytest.mark.parametrize("functional", [spearman_rho, pi_integral])
def test_quadrature_above_d4_raises(functional):
    # Gauss-Legendre stops at d = 4; a named method never falls through to
    # another method's path
    C = make_reflected_upper(5, [0])
    for method in ("quadrature", "segment_quadrature"):
        with pytest.raises(
            UnsupportedRepresentationError,
            match=f"{functional.__name__}.*quadrature.*SegmentCopula",
        ):
            functional(C, method=method)
    assert functional(C, method="monte_carlo", samples=2000).estimate.method == (
        "monte_carlo"
    )


def test_dispatch_errors_name_functional_method_and_representation():
    W = make_basic("lower_frechet_2d", 2, "analytic")
    with pytest.raises(UnsupportedRepresentationError, match="kendall_tau.*exact.*Lower"):
        kendall_tau(W, method="exact")
    # the Clayton node has no sampler: its Pi-integral averages Q^C[[x, 1]]
    # over uniform draws x
    for d, exact in ((3, 29 / 504), (4, 312691 / 15288000)):
        rep = pi_integral(ClaytonExtreme(d), method="monte_carlo")
        assert rep.estimate.method == "monte_carlo"
        assert abs(rep.value - exact) <= rep.estimate.error_bound


def test_tau_glue_rule_serves_the_method_its_halves_report():
    # glue(W, M_2): both halves are Simpson estimates, so "quadrature" takes
    # the glue rule and not the d=4 grid projection
    glue = make_glue_product(
        make_basic("lower_frechet_2d", 2), make_basic("upper_frechet", 2)
    )
    rep = kendall_tau(glue, method="quadrature")
    assert rep.value == pytest.approx(kendall_min(4), abs=1e-12)
    assert rep.estimate.error_bound <= 1e-12
    with pytest.raises(UnsupportedRepresentationError):
        kendall_tau(glue, method="exact")


# -- exact moment paths against their twins -------------------------------


def test_glue_moments_match_its_board():
    G = make_glue_product(random_checkerboard(2, 4, 1), random_checkerboard(2, 4, 2))
    B = as_board(G)
    for functional in (spearman_rho, pi_integral):
        rep = functional(G)
        assert rep.estimate.method == "exact"
        assert abs(rep.value - functional(B).value) <= 1e-12


@pytest.mark.parametrize(
    "kind, d, rho, pi",
    [
        ("upper_frechet", 2, 1.0, 1 / 3),
        ("upper_frechet", 3, 1.0, 1 / 4),
        ("upper_frechet", 4, 1.0, 1 / 5),
        ("lower_frechet_2d", 2, -1.0, 1 / 6),
    ],
)
def test_analytic_frechet_bounds_match_their_segment_twins(kind, d, rho, pi):
    C = make_basic(kind, d, "analytic")
    twin = make_basic(kind, d)
    for functional, expected in ((spearman_rho, rho), (pi_integral, pi)):
        rep = functional(C)
        assert rep.estimate.method == "exact"
        assert rep.value == pytest.approx(expected, abs=1e-12)
        assert abs(rep.value - functional(twin).value) <= 1e-12
    pts = sample(C, seed=4, n=500)
    assert pts.shape == (500, d)
    if kind == "upper_frechet":
        assert np.all(pts == pts[:, :1])
    else:
        assert np.max(np.abs(pts.sum(axis=1) - 1.0)) <= 1e-15


# -- Monte Carlo in row blocks ----------------------------------------------

# the last block is partial
BLOCKED_SAMPLES = 2 * _BOX_ROWS + 7


def one_shot(vals):
    """The mean and 3-sigma half-width of one full batch of values."""
    return vals.mean(), 3.0 * vals.std(ddof=1) / np.sqrt(len(vals))


def uniform_draws(d, seed=0):
    return np.random.default_rng(seed).random((BLOCKED_SAMPLES, d))


@pytest.mark.parametrize(
    "make",
    [
        lambda: ClaytonExtreme(3),
        lambda: ClaytonExtreme(5),
        lambda: random_checkerboard(3, 4, seed=5),
        lambda: refute_minimality(make_basic("upper_frechet", 2)).copula,
    ],
    ids=["clayton_3", "clayton_5", "board", "refuted"],
)
def test_streamed_rho_equals_the_one_shot_batch(make):
    C = make()
    d = C.dim
    P = uniform_draws(d)
    mean, err = one_shot(0.5 * (C.cdf_many(P) + survival(C).cdf_many(P)))
    norm = spearman_normalization(d)
    est = spearman_rho(C, method="monte_carlo", samples=BLOCKED_SAMPLES).estimate
    np.testing.assert_array_equal(
        [est.value, est.error_bound], [norm * (mean - 2.0**-d), norm * err]
    )


@pytest.mark.parametrize(
    "make",
    [lambda: random_checkerboard(3, 4, seed=5), make_triangle_3d,
     lambda: mixture_all_reflections(4)],
    ids=["board", "triangle", "mixture_all_reflections_4"],
)
def test_streamed_kendall_equals_the_one_shot_batch(make):
    C = make()
    mean, err = one_shot(C.cdf_many(C.sample(0, BLOCKED_SAMPLES)))
    est = kendall_integral(C, method="monte_carlo", samples=BLOCKED_SAMPLES)
    np.testing.assert_array_equal([est.value, est.error_bound], [mean, err])


@pytest.mark.parametrize(
    "C, vals",
    [
        (ClaytonExtreme(3),
         lambda C: C.box_mass_many(uniform_draws(3), np.ones((BLOCKED_SAMPLES, 3)))),
        (random_checkerboard(3, 4, seed=5),
         lambda C: C.sample(0, BLOCKED_SAMPLES).prod(axis=1)),
    ],
    ids=["clayton_3_uniform", "board_sampler"],
)
def test_streamed_pi_integral_equals_the_one_shot_batch(C, vals):
    mean, err = one_shot(vals(C))
    est = pi_integral(C, method="monte_carlo", samples=BLOCKED_SAMPLES).estimate
    np.testing.assert_array_equal([est.value, est.error_bound], [mean, err])


def test_monte_carlo_memory_does_not_grow_with_the_batch():
    # beyond the value array (8 bytes per sample) a streamed estimate holds
    # at most one block per worker; a one-shot batch holds ~110 bytes per
    # sample
    import tracemalloc

    def peak(samples):
        tracemalloc.start()
        try:
            spearman_rho(ClaytonExtreme(4), method="monte_carlo", samples=samples)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the value array grows by 8 bytes per sample; a variance that builds its
    # array of deviations grows by 16 once that array outweighs the blocks
    # in flight, hence batches of 0.5M and 2M samples
    small, large = 16 * _BOX_ROWS, 64 * _BOX_ROWS
    assert peak(large) - peak(small) <= 12 * (large - small)


def test_pi_integral_quadrature_memory_stays_at_its_peak():
    # the d = 4 quadrature's 24^4-node box masses Q^C[[x, 1]] run the block
    # loop of every lattice query; their tracemalloc peak was 6.82 MB when
    # the extreme Clayton's kernel cut its own blocks, and it must not grow
    import tracemalloc

    tracemalloc.start()
    try:
        est = pi_integral(ClaytonExtreme(4), method="quadrature").estimate
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.samples_or_nodes == 24**4
    assert peak <= 6.83e6


MC_PATHS = {
    "rho_uniform": lambda: spearman_rho(
        ClaytonExtreme(3), method="monte_carlo", samples=BLOCKED_SAMPLES).estimate,
    "pi_uniform": lambda: pi_integral(
        ClaytonExtreme(3), method="monte_carlo", samples=BLOCKED_SAMPLES).estimate,
    "pi_sampler": lambda: pi_integral(
        random_checkerboard(3, 4, seed=5), method="monte_carlo",
        samples=BLOCKED_SAMPLES).estimate,
    "kendall_sampler": lambda: kendall_integral(
        random_checkerboard(3, 4, seed=5), method="monte_carlo", samples=BLOCKED_SAMPLES),
}


@pytest.mark.parametrize("path", sorted(MC_PATHS))
def test_monte_carlo_reports_plain_floats(path):
    est = MC_PATHS[path]()
    assert est.method == "monte_carlo"
    assert type(est.value) is float and type(est.error_bound) is float


def test_workers_count_the_cpus_up_to_the_cap(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert concordance._workers() == min(3, concordance._MC_WORKERS)
        monkeypatch.delattr(os, "sched_getaffinity")
    # without an affinity call, the CPU count, or one CPU when it is unknown
    for cpus, workers in [(64, concordance._MC_WORKERS), (None, 1)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert concordance._workers() == workers


PINNED_RUN = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from mincop import ClaytonExtreme, pi_integral, spearman_rho
from mincop.concordance import _workers
assert _workers() == 1
n = int(sys.argv[1])
for f in (spearman_rho, pi_integral):
    est = f(ClaytonExtreme(5), samples=n).estimate
    print(repr(est.value), repr(est.error_bound))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_pooled_blocks_equal_the_inline_loop_of_one_cpu(monkeypatch):
    # here blocks go to workers as on a machine with _MC_WORKERS CPUs; the
    # subprocess is pinned to one CPU, so it evaluates every block inline
    monkeypatch.setattr(concordance, "_workers", lambda: concordance._MC_WORKERS)
    here = "".join(
        f"{est.value!r} {est.error_bound!r}\n"
        for est in (f(ClaytonExtreme(5), samples=BLOCKED_SAMPLES).estimate
                    for f in (spearman_rho, pi_integral))
    )
    src = str(Path(concordance.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c", PINNED_RUN, str(BLOCKED_SAMPLES)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == here


def test_blocks_land_in_their_own_rows_under_fast_thread_switches(monkeypatch):
    # more workers than this machine may have CPUs, switching threads often
    monkeypatch.setattr(concordance, "_workers", lambda: concordance._MC_WORKERS)
    n = 12 * _BOX_ROWS
    vals = np.repeat(np.arange(12.0), _BOX_ROWS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        est = concordance._monte_carlo(
            n, lambda k: np.full(_BOX_ROWS, k), lambda rows: float(rows.start // _BOX_ROWS))
    finally:
        sys.setswitchinterval(interval)
    mean, err = one_shot(vals)
    assert (est.value, est.error_bound) == (float(mean), float(err))


class BlockError(Exception):
    pass


@pytest.mark.parametrize("bad", [0, 3, 5])
def test_a_failing_block_reraises_and_leaves_no_thread(monkeypatch, bad):
    monkeypatch.setattr(concordance, "_workers", lambda: concordance._MC_WORKERS)
    before = threading.active_count()

    def block(r):
        if r == bad:
            raise BlockError(f"block {r}")
        return np.zeros(_BOX_ROWS)

    with pytest.raises(BlockError, match=f"block {bad}"):
        concordance._monte_carlo(6 * _BOX_ROWS, block, lambda rows: rows.start // _BOX_ROWS)
    assert threading.active_count() == before


def test_one_block_starts_no_thread(monkeypatch):
    monkeypatch.setattr(concordance, "_workers", lambda: concordance._MC_WORKERS)

    def start(self):
        raise AssertionError("a one-block estimate started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    for functional in (spearman_rho, pi_integral):
        est = functional(ClaytonExtreme(3), method="monte_carlo", samples=_BOX_ROWS).estimate
        assert est.samples_or_nodes == _BOX_ROWS

"""Acceptance suite: the headline claims, each at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Everything here is recomputed from scratch; no expected
value is asserted that was not derived independently (closed forms,
hand-counted segment geometry) or taken from the published table.
"""

import sys
from contextlib import contextmanager

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
    hyperplane_mass,
    kendall_tau,
    make_basic,
    make_glue_product,
    make_mixture,
    make_reflected_upper,
    make_triangle_3d,
    mixture_all_reflections,
    permute,
    pointwise_leq,
    random_checkerboard,
    reflection_sum,
    refute_minimality,
    shuffle_a,
    shuffle_b,
    spearman_rho,
    survival,
    tau_cm_defect,
    validate,
)
from mincop.reference_values import kendall_minimum, rho_nu1, rho_nu12


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {text}", file=sys.stderr)
        raise
    print(f"[criterion {num:02d}] PASS  {text}", file=sys.stderr)


def test_criterion_01_comonotone_maximum():
    with criterion(1, "tau(M) = rho(M) = 1 for d in {2,3,4} (|err| <= 1e-6)"):
        for d in (2, 3, 4):
            M = make_basic("upper_frechet", d)
            assert kendall_tau(M).value == pytest.approx(1.0, abs=1e-6)
            assert spearman_rho(M).value == pytest.approx(1.0, abs=1e-6)


def test_criterion_02_bivariate_least_element():
    with criterion(2, "tau(W) = rho(W) = -1 at d=2 (|err| <= 1e-9)"):
        W = make_basic("lower_frechet_2d", 2)
        assert kendall_tau(W).value == pytest.approx(-1.0, abs=1e-9)
        assert spearman_rho(W).value == pytest.approx(-1.0, abs=1e-9)


def test_criterion_03_kendall_minimum_on_segments():
    with criterion(
        3, "tau(nu_1(M)) = -1/(2^(d-1)-1) for d in {2..5}, segment quadrature"
    ):
        for d in (2, 3, 4, 5):
            rep = kendall_tau(
                make_reflected_upper(d, [0]), method="segment_quadrature"
            )
            assert rep.value == pytest.approx(kendall_minimum(d), abs=1e-6)


def test_criterion_04_extreme_clayton():
    with criterion(
        4, "clayton_extreme: tau at the minimum via discretization; tau-CM exactly"
    ):
        for d, n in ((3, 64), (4, 24)):
            board = discretize(make_basic("clayton_extreme", d), n)
            assert kendall_tau(board).value == pytest.approx(
                kendall_minimum(d), abs=5e-2
            )
        for d in (3, 4):
            defect, _, _ = tau_cm_defect(make_basic("clayton_extreme", d))
            assert defect <= 1e-9


def test_criterion_05_triangle_spearman_minimum():
    with criterion(5, "rho(triangle) = -1/2 at d=3 (|err| <= 2e-3)"):
        assert spearman_rho(make_triangle_3d()).value == pytest.approx(-0.5, abs=2e-3)


def test_criterion_06_spearman_closed_forms_and_strict_order():
    with criterion(
        6, "rho(nu_1), rho(nu_12) closed forms d in {3,4,5}; strict order d >= 4"
    ):
        for d in (3, 4, 5):
            r1 = spearman_rho(make_reflected_upper(d, [0])).value
            r12 = spearman_rho(make_reflected_upper(d, [0, 1])).value
            assert r1 == pytest.approx(rho_nu1(d), abs=1e-3)
            assert r12 == pytest.approx(rho_nu12(d), abs=1e-3)
            if d >= 4:
                # the separating inequality holds from dimension 4 on
                assert r12 < r1
            else:
                # at d=3 the two closed forms coincide at -1/3
                assert r12 == pytest.approx(r1, abs=1e-9)


def test_criterion_07_kendall_not_strictly_preserving():
    with criterion(
        7, "tau(shuffle_A) = tau(shuffle_B) yet A strictly below B; d=3 lift too"
    ):
        A, B = shuffle_a(), shuffle_b()
        assert kendall_tau(A).value == pytest.approx(kendall_tau(B).value, abs=1e-9)
        assert pointwise_leq(A, B).relation == Relation.STRICTLY_BELOW
        one = make_basic("product", 1)
        CA, CB = make_glue_product(A, one), make_glue_product(B, one)
        assert kendall_tau(CA).value == pytest.approx(kendall_tau(CB).value, abs=1e-9)
        assert pointwise_leq(CA, CB).relation == Relation.STRICTLY_BELOW


def test_criterion_08_strict_inclusion_at_d4():
    with criterion(
        8, "glue(W,Pi_2) strictly below glue(W,M_2); glue(W,M_2) is tau-CM"
    ):
        W = make_basic("lower_frechet_2d", 2)
        low = make_glue_product(W, make_basic("product", 2))
        high = make_glue_product(W, make_basic("upper_frechet", 2))
        assert concordance_leq(low, high).relation == Relation.STRICTLY_BELOW
        defect, _, _ = tau_cm_defect(high)
        assert defect <= 1e-9


def _refutable_inputs():
    M2 = make_basic("upper_frechet", 2)
    Pi2 = make_basic("product", 2)
    inputs = [
        Pi2,
        make_basic("product", 3),
        M2,
        make_basic("upper_frechet", 3),
        make_mixture([(M2, 0.5), (Pi2, 0.5)]),
    ]
    for d in (2, 3):
        for seed in range(5):
            inputs.append(random_checkerboard(d, 8, seed=seed))
    return inputs


def _tau_cm_inputs():
    W = make_basic("lower_frechet_2d", 2)
    out = [W]
    for K in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        out.append(make_reflected_upper(3, K))
    out.append(make_basic("clayton_extreme", 3))
    out.append(make_triangle_3d())
    out.append(make_glue_product(W, make_basic("product", 1)))
    return out


def test_criterion_09_refuter_soundness_suite():
    with criterion(
        9, "refuter: certificates verified on 15 non-minimal inputs; "
        "tau-CM returned on 10 minimal-side inputs"
    ):
        for C in _refutable_inputs():
            cert = refute_minimality(C)
            assert isinstance(cert, RefutationCertificate)
            assert validate(cert.copula).passed
            assert cert.order_check.relation == Relation.STRICTLY_BELOW
            assert cert.rho_drop > 0
        for C in _tau_cm_inputs():
            assert isinstance(refute_minimality(C), TauCmCertificate)


def test_criterion_09_surgery_on_m_matches_shuffle_a():
    # On M the corner pair is a = b = (1/2, 1/2) with p = 1/2, so the two
    # corners are the halves of the diagonal and 2p C_1 = M: the surgery
    # keeps only the cross-glued C_2.  Each corner's first-coordinate
    # marginal is coupled independently to the other corner's second
    # marginal, so D = C_2 has density 2 on [0,1/2]x[1/2,1] and
    # [1/2,1]x[0,1/2], i.e. uniform on shuffle_A's two squares, with
    # rho(D) = -3/4.  shuffle_A is the comonotone coupling of the same
    # marginals (rho = -1/2); since D(u, v) = 2u(v - 1/2) <= min(u, v - 1/2)
    # on the upper-left square (and symmetrically), D lies strictly below it.
    with criterion(
        9,
        "surgery on M is block-uniform (density 2) on shuffle_A's squares, "
        "rho = -3/4, strictly below shuffle_A",
    ):
        cert = refute_minimality(make_basic("upper_frechet", 2))
        assert isinstance(cert, RefutationCertificate)
        D = cert.copula
        n = 16
        want = np.zeros((n, n))
        want[: n // 2, n // 2 :] = 2.0 / n**2
        want[n // 2 :, : n // 2] = 2.0 / n**2
        assert np.max(np.abs(discretize(D, n).masses - want)) <= 1e-9
        assert spearman_rho(D).value == pytest.approx(-0.75, abs=1e-9)
        assert spearman_rho(shuffle_a()).value == pytest.approx(-0.5, abs=1e-9)
        halves = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert np.max(np.abs(discretize(D, 2).masses - halves)) <= 1e-9
        assert np.max(np.abs(discretize(shuffle_a(), 2).masses - halves)) <= 1e-9
        assert concordance_leq(D, shuffle_a()).relation == Relation.STRICTLY_BELOW


def test_criterion_10_hierarchy_chain():
    with criterion(
        10,
        "every exactly hyperplane-certified catalog copula is grid tau-CM "
        "and sits at the Kendall minimum",
    ):
        from mincop.reference_values import _hyperplane_certified_catalog

        entries = _hyperplane_certified_catalog()
        assert len(entries) >= 10
        for name, cop, spec in entries:
            assert hyperplane_mass(cop, spec, eps=0.0) == pytest.approx(
                1.0, abs=1e-12
            ), name
            defect, _, _ = tau_cm_defect(cop)
            assert defect <= 1e-9, name
            rep = kendall_tau(cop)
            tol = max(1e-6, rep.estimate.error_bound + 1e-9)
            assert rep.value == pytest.approx(kendall_minimum(cop.dim), abs=tol), name


def test_criterion_11_axiom_suite():
    with criterion(
        11,
        "10 random boards: reflection sums 0 +- 1e-9; permutation and "
        "survival invariance to 1e-9",
    ):
        rng = np.random.default_rng(2024)
        boards = [random_checkerboard(d, 6, seed=s) for d in (2, 3) for s in range(5)]
        for board in boards:
            assert abs(reflection_sum(kendall_tau, board)) <= 1e-9
            assert abs(reflection_sum(spearman_rho, board)) <= 1e-9
            sigma = rng.permutation(board.dim)
            for functional in (kendall_tau, spearman_rho):
                base = functional(board).value
                assert abs(functional(permute(board, sigma)).value - base) <= 1e-9
                assert abs(functional(survival(board)).value - base) <= 1e-9


def test_criterion_12_rho_minimizer_minimizes_tau():
    with criterion(
        12, "the triangle copula (a rho minimiser) has tau = -1/3 (|err| <= 1e-3)"
    ):
        rep = kendall_tau(make_triangle_3d(), method="segment_quadrature")
        assert rep.value == pytest.approx(-1 / 3, abs=1e-3)


def test_criterion_13_descent_reaches_grid_tau_cm():
    with criterion(
        13,
        "descend(Pi, d=2, n=16) converges: defect <= 1e-9 and tau(final) <= -0.85",
    ):
        res = descend(make_basic("product", 2), n=16, max_iter=50, tol=1e-9)
        assert res.status == "converged"
        defect, _, _ = tau_cm_defect(res.final)
        assert defect <= 1e-9
        assert kendall_tau(res.final).value <= -0.85


def test_reproduction_table_rows_all_pass():
    # the table CI runs as ``mincop reproduce paper-values``
    from mincop.reference_values import build_rows

    rows = build_rows()
    assert len(rows) == 38
    assert [r.quantity for r in rows if not r.passed] == []

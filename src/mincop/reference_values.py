"""The reproducibility table: every published/derived value this package
claims to reproduce, each with its tolerance, recomputed on demand.

``build_rows`` is what the CLI's ``reproduce paper-values`` verb runs; a row
records quantity, dimension, the literature value, the computed value, the
achieved error, the method tag and whether it passed at its tolerance.
Suite-style rows (refuter soundness, axiom checks) report a pass fraction
with target 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import catalog
from .concordance import kendall_tau, reflection_sum, spearman_rho
from .negdep import (
    GFunc,
    HyperplaneSpec,
    RefutationCertificate,
    TauCmCertificate,
    descend,
    hyperplane_mass,
    refute_minimality,
    tau_cm_defect,
)
from .order import Relation, concordance_leq, pointwise_leq
from .transforms import discretize, permute, survival

__all__ = ["Row", "build_rows", "rows_to_csv"]


@dataclass(frozen=True)
class Row:
    quantity: str
    d: int
    paper_value: float
    computed: float
    error: float
    method: str
    tol: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tol


def _row(quantity, d, paper, report, tol) -> Row:
    return Row(
        quantity,
        d,
        paper,
        report.value,
        abs(report.value - paper),
        report.estimate.method,
        tol,
    )


def _value_row(quantity, d, paper, computed, method, tol) -> Row:
    return Row(quantity, d, paper, computed, abs(computed - paper), method, tol)


def kendall_minimum(d: int) -> float:
    return -1.0 / (2.0 ** (d - 1) - 1.0)


def rho_nu1(d: int) -> float:
    return (2.0**d - d * (d + 1)) / (d * (2.0**d - (d + 1)))


def rho_nu12(d: int) -> float:
    return (2.0 ** (d + 1) - (d - 1) * d * (d + 1)) / (
        (d - 1) * d * (2.0**d - (d + 1))
    )


def build_rows(progress=None) -> list[Row]:
    rows: list[Row] = []

    def emit(row: Row):
        rows.append(row)
        if progress is not None:
            progress(row)

    # 1. kappa(M) = 1 for tau and rho
    for d in (2, 3, 4):
        M = catalog.make_basic("upper_frechet", d)
        emit(_row("kendall_tau(M)", d, 1.0, kendall_tau(M), 1e-6))
        emit(_row("spearman_rho(M)", d, 1.0, spearman_rho(M), 1e-6))

    # 2. the bivariate least element
    W = catalog.make_basic("lower_frechet_2d", 2)
    emit(_row("kendall_tau(W)", 2, -1.0, kendall_tau(W), 1e-9))
    emit(_row("spearman_rho(W)", 2, -1.0, spearman_rho(W), 1e-9))

    # 3. the Kendall minimum, attained by nu_1(M)
    for d in (2, 3, 4, 5):
        nu1 = catalog.make_reflected_upper(d, [0])
        emit(
            _row(
                "kendall_tau(nu_1(M))",
                d,
                kendall_minimum(d),
                kendall_tau(nu1, method="segment_quadrature"),
                1e-6,
            )
        )

    # 4. extreme Clayton: Kendall minimum via discretization, tau-CM exactly
    for d, n in ((3, 64), (4, 24)):
        board = discretize(catalog.make_basic("clayton_extreme", d), n)
        emit(
            _row(
                f"kendall_tau(clayton_extreme@{n})",
                d,
                kendall_minimum(d),
                kendall_tau(board),
                5e-2,
            )
        )
    defect, _, _ = tau_cm_defect(catalog.make_basic("clayton_extreme", 3))
    emit(_value_row("tau_cm_defect(clayton_extreme)", 3, 0.0, defect, "exact", 1e-9))

    # 5. the trivariate Spearman minimum, attained by the triangle copula
    tri = catalog.make_triangle_3d()
    emit(_row("spearman_rho(triangle)", 3, -0.5, spearman_rho(tri), 2e-3))

    # 6. Spearman closed forms for nu_1(M), nu_{1,2}(M); strict order for d >= 4
    for d in (3, 4, 5):
        nu1 = catalog.make_reflected_upper(d, [0])
        nu12 = catalog.make_reflected_upper(d, [0, 1])
        r1 = spearman_rho(nu1)
        r12 = spearman_rho(nu12)
        emit(_row("spearman_rho(nu_1(M))", d, rho_nu1(d), r1, 1e-3))
        emit(_row("spearman_rho(nu_12(M))", d, rho_nu12(d), r12, 1e-3))
        if d >= 4:
            emit(
                _value_row(
                    "rho(nu_12) < rho(nu_1)",
                    d,
                    1.0,
                    1.0 if r12.value < r1.value else 0.0,
                    "exact",
                    0.0,
                )
            )

    # 7. Kendall's tau is not strictly order preserving: shuffles
    A, B = catalog.shuffle_a(), catalog.shuffle_b()
    tA, tB = kendall_tau(A), kendall_tau(B)
    emit(
        _value_row(
            "tau(shuffle_A) - tau(shuffle_B)",
            2,
            0.0,
            tA.value - tB.value,
            tA.estimate.method,
            1e-9,
        )
    )
    emit(
        _value_row(
            "shuffle_A strictly below shuffle_B",
            2,
            1.0,
            1.0 if pointwise_leq(A, B).relation == Relation.STRICTLY_BELOW else 0.0,
            "grid",
            0.0,
        )
    )
    one = catalog.make_basic("product", 1)
    CA = catalog.make_glue_product(A, one)
    CB = catalog.make_glue_product(B, one)
    emit(
        _value_row(
            "tau(glue(A,Pi_1)) - tau(glue(B,Pi_1))",
            3,
            0.0,
            kendall_tau(CA).value - kendall_tau(CB).value,
            "exact",
            1e-9,
        )
    )

    # 8. the strictness gap of the necessary condition at d >= 4
    W2 = catalog.make_basic("lower_frechet_2d", 2)
    M2 = catalog.make_basic("upper_frechet", 2)
    Pi2 = catalog.make_basic("product", 2)
    glue_low = catalog.make_glue_product(W2, Pi2)
    glue_high = catalog.make_glue_product(W2, M2)
    emit(
        _value_row(
            "glue(W,Pi_2) strictly below glue(W,M_2)",
            4,
            1.0,
            1.0
            if concordance_leq(glue_low, glue_high).relation == Relation.STRICTLY_BELOW
            else 0.0,
            "grid",
            0.0,
        )
    )
    defect, _, _ = tau_cm_defect(glue_high)
    emit(_value_row("tau_cm_defect(glue(W,M_2))", 4, 0.0, defect, "exact", 1e-9))

    # 9. refuter soundness and one-sidedness
    refutable = [
        ("product", Pi2),
        ("product", catalog.make_basic("product", 3)),
        ("upper_frechet", M2),
        ("upper_frechet", catalog.make_basic("upper_frechet", 3)),
        ("mixture(M,Pi)", catalog.make_mixture([(M2, 0.5), (Pi2, 0.5)])),
    ]
    for d in (2, 3):
        for seed in range(5):
            refutable.append(
                (f"random_board(d={d},seed={seed})", catalog.random_checkerboard(d, 8, seed))
            )
    sound = 0
    for _, cop in refutable:
        cert = refute_minimality(cop)
        if isinstance(cert, RefutationCertificate) and cert.passed:
            sound += 1
    emit(
        _value_row(
            "refuter soundness suite",
            0,
            1.0,
            sound / len(refutable),
            "exact",
            0.0,
        )
    )
    minimal_side = [
        W2,
        *[
            catalog.make_reflected_upper(3, K)
            for K in ([0], [1], [2], [0, 1], [0, 2], [1, 2])
        ],
        catalog.make_basic("clayton_extreme", 3),
        catalog.make_triangle_3d(),
        catalog.make_glue_product(W2, one),
    ]
    onesided = sum(
        isinstance(refute_minimality(c), TauCmCertificate) for c in minimal_side
    )
    emit(
        _value_row(
            "refuter tau-CM suite",
            0,
            1.0,
            onesided / len(minimal_side),
            "exact",
            0.0,
        )
    )

    # 10. hierarchy: exactly hyperplane-certified copulas are grid tau-CM and
    #     sit at the Kendall minimum
    certified = _hyperplane_certified_catalog()
    ok = 0
    for name, cop, spec in certified:
        mass = hyperplane_mass(cop, spec, eps=0.0)
        defect, _, _ = tau_cm_defect(cop)
        tau = kendall_tau(cop)
        tau_err = abs(tau.value - kendall_minimum(cop.dim))
        good = (
            mass >= 1.0 - 1e-12
            and defect <= 1e-9
            and tau_err <= max(1e-6, tau.estimate.error_bound + 1e-9)
        )
        ok += bool(good)
    emit(
        _value_row(
            "K-CM => tau-CM => Kendall minimum",
            0,
            1.0,
            ok / len(certified),
            "exact",
            0.0,
        )
    )

    # 11. measure-of-concordance axioms on random checkerboards
    worst_refl = 0.0
    worst_perm = 0.0
    worst_surv = 0.0
    for d in (2, 3):
        for seed in range(5):
            board = catalog.random_checkerboard(d, 6, 100 + seed)
            worst_refl = max(
                worst_refl,
                abs(reflection_sum(kendall_tau, board)),
                abs(reflection_sum(spearman_rho, board)),
            )
            sigma = np.random.default_rng(seed).permutation(d)
            worst_perm = max(
                worst_perm,
                abs(kendall_tau(permute(board, sigma)).value - kendall_tau(board).value),
                abs(spearman_rho(permute(board, sigma)).value - spearman_rho(board).value),
            )
            worst_surv = max(
                worst_surv,
                abs(kendall_tau(survival(board)).value - kendall_tau(board).value),
                abs(spearman_rho(survival(board)).value - spearman_rho(board).value),
            )
    emit(_value_row("axiom(iv): max |reflection sum|", 0, 0.0, worst_refl, "exact", 1e-9))
    emit(_value_row("axiom(ii): permutation invariance", 0, 0.0, worst_perm, "exact", 1e-9))
    emit(_value_row("axiom(iii): survival invariance", 0, 0.0, worst_surv, "exact", 1e-9))

    # 12. a Spearman minimiser also minimises Kendall's tau
    emit(
        _row(
            "kendall_tau(triangle)",
            3,
            kendall_minimum(3),
            kendall_tau(tri, method="segment_quadrature"),
            1e-3,
        )
    )

    # 13. descent drives Pi to a grid tau-CM board near the d=2 least element
    result = descend(Pi2, n=16, max_iter=50)
    final_defect, _, _ = tau_cm_defect(result.final)
    emit(_value_row("descend(Pi,16): final tau-CM defect", 2, 0.0, final_defect, "exact", 1e-9))
    final_tau = kendall_tau(result.final).value
    emit(
        Row(
            "descend(Pi,16): kendall_tau(final)",
            2,
            -1.0,
            final_tau,
            abs(final_tau - (-1.0)),
            "exact",
            0.15,
        )
    )
    return rows


def _hyperplane_certified_catalog():
    """Catalog copulas with an exact hyperplane certificate (eps = 0)."""
    entries = []
    for d in (2, 3, 4):
        for size in range(1, d):
            for K in itertools.combinations(range(d), size):
                cop = catalog.make_reflected_upper(d, K)
                g = tuple(
                    GFunc("affine", alpha=1.0 / size)
                    if k in K
                    else GFunc("affine", alpha=1.0 / (d - size))
                    for k in range(d)
                )
                entries.append(
                    (f"nu_{K}(M) d={d}", cop, HyperplaneSpec(tuple(range(d)), g, 1.0))
                )
    tri = catalog.make_triangle_3d()
    entries.append(
        (
            "triangle",
            tri,
            HyperplaneSpec((0, 1, 2), tuple(GFunc("affine") for _ in range(3)), 1.5),
        )
    )
    # product closure: glue of two bivariate extreme Claytons (= W as segments)
    w_seg = catalog.make_basic("lower_frechet_2d", 2)
    glue = catalog.make_glue_product(w_seg, catalog.make_basic("lower_frechet_2d", 2))
    entries.append(
        (
            "glue(clayton_2, clayton_2)",
            glue,
            HyperplaneSpec((0, 1, 2, 3), tuple(GFunc("affine") for _ in range(4)), 2.0),
        )
    )
    # proper-subset certificates: |K| = d-1 (d=3) and |K| = d-2 (d=4); these
    # copulas are K-countermonotonic on the W block alone, which still forces
    # Kendall countermonotonicity (and hence the Kendall minimum) even though
    # only the d-1 case also forces minimality
    entries.append(
        (
            "glue(W, Pi_1) |K|=d-1",
            catalog.make_glue_product(w_seg, catalog.make_basic("product", 1)),
            HyperplaneSpec((0, 1), (GFunc("affine"), GFunc("affine")), 1.0),
        )
    )
    entries.append(
        (
            "glue(W, Pi_2) |K|=d-2",
            catalog.make_glue_product(w_seg, catalog.make_basic("product", 2)),
            HyperplaneSpec((0, 1), (GFunc("affine"), GFunc("affine")), 1.0),
        )
    )
    return entries


def rows_to_csv(rows: list[Row]) -> str:
    lines = ["quantity,d,paper_value,computed,error,method,tol,passed"]
    for r in rows:
        lines.append(
            f"{r.quantity},{r.d},{r.paper_value:.12g},{r.computed:.12g},"
            f"{r.error:.3e},{r.method},{r.tol:.1e},{str(r.passed).lower()}"
        )
    return "\n".join(lines) + "\n"

"""JSON spec round-trips and the command-line surface."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mincop import (
    Permuted,
    Reflected,
    SpecError,
    TauCmCertificate,
    descend,
    kendall_tau,
    make_basic,
    make_glue_product,
    make_mixture,
    make_reflected_upper,
    make_triangle_3d,
    parse_spec,
    random_checkerboard,
    refute_minimality,
    shuffle_a,
    tau_cm_certificate,
    to_spec,
)
from mincop.cli import main
from mincop.core import ClaytonExtreme, LowerFrechet2d, RefutedCopula, grid_points
from mincop.serialize import dump, load


def roundtrip_agrees(C, n=9, tol=1e-12):
    D = parse_spec(json.loads(json.dumps(to_spec(C))))
    U = grid_points([np.linspace(0, 1, n)] * C.dim)
    return float(np.max(np.abs(C.cdf_many(U) - D.cdf_many(U)))) <= tol


@pytest.mark.parametrize(
    "factory",
    [
        lambda: make_basic("upper_frechet", 3),
        lambda: make_basic("upper_frechet", 2, "analytic"),
        lambda: make_basic("lower_frechet_2d", 2),
        lambda: make_basic("product", 4),
        lambda: make_basic("clayton_extreme", 3),
        lambda: Reflected(make_basic("clayton_extreme", 3), [0, 2]),
        lambda: Permuted(make_triangle_3d(), (2, 0, 1)),
        lambda: make_triangle_3d(),
        shuffle_a,
        lambda: make_reflected_upper(4, [1, 3]),
        lambda: random_checkerboard(2, 6, seed=0),
        lambda: make_glue_product(
            make_basic("lower_frechet_2d", 2), make_basic("product", 2)
        ),
        lambda: make_mixture(
            [
                (make_basic("upper_frechet", 2, "analytic"), 0.25),
                (make_basic("product", 2), 0.75),
            ]
        ),
        lambda: refute_minimality(make_basic("product", 2)).copula,
    ],
)
def test_roundtrip_semantically_identical(factory):
    assert roundtrip_agrees(factory())


def test_catalog_kinds_parse():
    for doc in (
        {"kind": "triangle", "dim": 3},
        {"kind": "shuffle_a", "dim": 2},
        {"kind": "shuffle_b", "dim": 2},
        {"kind": "reflected_upper", "dim": 3, "K": [0]},
        {"kind": "mixture_all_reflections", "dim": 3},
    ):
        C = parse_spec(doc)
        assert C.dim == doc["dim"]


def test_parse_rejects_unknown_kind():
    with pytest.raises(SpecError):
        parse_spec({"kind": "gaussian", "dim": 2})


def test_parse_rejects_missing_fields():
    with pytest.raises(SpecError):
        parse_spec({"kind": "reflected", "dim": 2})


def test_refuted_witness_roundtrips_exactly():
    # a surgery node over a surgery node: same corners, same mass, same bits
    D = refute_minimality(Reflected(ClaytonExtreme(3), [0])).copula
    D = refute_minimality(D).copula
    E = parse_spec(json.loads(json.dumps(to_spec(D))))
    assert isinstance(E, RefutedCopula) and isinstance(E.inner, RefutedCopula)
    assert np.array_equal(E.a, D.a) and np.array_equal(E.b, D.b) and E.p == D.p
    U = grid_points([np.linspace(0, 1, 7)] * 3)
    np.testing.assert_array_equal(E.cdf_many(U), D.cdf_many(U))


def test_analytic_lower_frechet_roundtrips_as_analytic():
    doc = to_spec(make_basic("lower_frechet_2d", 2, "analytic"))
    assert doc == {"kind": "lower_frechet", "dim": 2, "representation": "analytic", "schema_version": 1}
    assert isinstance(parse_spec(doc), LowerFrechet2d)


def test_dump_and_load_roundtrip(tmp_path):
    C = refute_minimality(make_basic("upper_frechet", 2)).copula
    path = str(tmp_path / "witness.json")
    dump(C, path)
    assert isinstance(load(path), RefutedCopula)
    assert to_spec(load(path)) == to_spec(C)
    with pytest.raises(SpecError, match="missing.json"):
        load(str(tmp_path / "missing.json"))


# -- CLI ---------------------------------------------------------------


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_measure_triangle_rho(tmp_path, capsys):
    spec = write_spec(tmp_path, "tri.json", {"kind": "triangle", "dim": 3})
    assert main(["measure", spec, "--rho"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spearman_rho"]["value"] == pytest.approx(-0.5, abs=1e-9)
    assert doc["seed"] == 0


def test_cli_measure_rejects_an_unknown_method(tmp_path, capsys):
    # an unknown name used to fall through to Monte Carlo and exit 0
    spec = write_spec(tmp_path, "m3.json", {"kind": "upper_frechet", "dim": 3})
    assert main(["measure", spec, "--rho", "--method", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "nonsense" in err and "monte_carlo" in err


@pytest.mark.parametrize(
    "doc, method",
    [
        ({"kind": "upper_frechet", "dim": 3}, "quadrature"),
        (to_spec(random_checkerboard(3, 4, seed=0)), "exact"),
        ({"kind": "clayton_extreme", "dim": 3}, "quadrature"),
        ({"kind": "product", "dim": 3}, "exact"),
    ],
)
def test_cli_measure_method_serves_all_three_functionals(tmp_path, capsys, doc, method):
    # a named method takes each functional's first path of that kind: for
    # the extreme Clayton tau's grid projection, rho's and the Pi-integral's
    # Gauss-Legendre; for Pi its exact 2^-d and moments
    spec = write_spec(tmp_path, "c.json", doc)
    assert main(["measure", spec, "--method", method]) == 0
    doc = json.loads(capsys.readouterr().out)
    for name in ("kendall_tau", "spearman_rho", "pi_integral"):
        assert doc[name]["method"] == method


@pytest.mark.parametrize(
    "doc, flags",
    [
        ({"kind": "clayton_extreme", "dim": 5}, ["--rho"]),
        ({"kind": "upper_frechet", "dim": 3}, ["--tau", "--method", "monte_carlo"]),
    ],
)
@pytest.mark.parametrize("samples", ["-5", "0", "1"])
def test_cli_measure_rejects_fewer_than_two_samples(tmp_path, capsys, doc, flags, samples):
    # a 3-sigma half-width needs two draws: fewer used to print NaN and exit 0,
    # or leak numpy's traceback
    spec = write_spec(tmp_path, "c.json", doc)
    assert main(["measure", spec, *flags, "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and "samples" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_measure_clayton_d5_serves_all_three_functionals(tmp_path, capsys):
    # the Pi-integral has no quadrature above d = 4 and the Clayton node no
    # sampler, so it takes uniform draws of Q^C[[x, 1]]
    spec = write_spec(tmp_path, "c5.json", {"kind": "clayton_extreme", "dim": 5})
    assert main(["measure", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spearman_rho"]["method"] == doc["pi_integral"]["method"] == "monte_carlo"


def test_cli_measure_method_without_a_path_exits_one(tmp_path, capsys):
    spec = write_spec(tmp_path, "m3.json", {"kind": "upper_frechet", "dim": 3})
    assert main(["measure", spec, "--method", "exact"]) == 1
    err = capsys.readouterr().err
    assert "kendall_tau" in err and "exact" in err
    assert "Traceback" not in err
    assert main(["measure", "--help"]) == 0
    out = capsys.readouterr().out
    for name in ("auto", "exact", "quadrature", "monte_carlo", "exact_checkerboard",
                 "segment_quadrature"):
        assert name in out


def test_cli_refute_product(tmp_path, capsys):
    # Pi is exactly a board, so its witness is a board, and refuting the
    # witness once more stays on boards
    spec = write_spec(tmp_path, "pi.json", {"kind": "product", "dim": 2})
    for name in ("d1.json", "d2.json"):
        assert main(["refute", spec]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == "refuted"
        assert doc["rho_drop"] > 0
        assert doc["witness_copula"]["kind"] == "checkerboard"
        spec = write_spec(tmp_path, name, doc["witness_copula"])


def test_cli_refute_board_witness_is_a_board(tmp_path, capsys):
    # a board's witness is the verified board itself, so refuting it again
    # stays on the board path
    spec = write_spec(tmp_path, "b.json", to_spec(random_checkerboard(3, 8, seed=0)))
    for name in ("d1.json", "d2.json"):
        assert main(["refute", spec]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == "refuted"
        assert doc["witness_copula"]["kind"] == "checkerboard"
        spec = write_spec(tmp_path, name, doc["witness_copula"])


def test_cli_no_board_passes_tau_cm(tmp_path, capsys):
    # descend stops on a board with no refutable vertex; it is refuted and
    # certified at its cell midpoints
    board = descend(make_basic("product", 2), n=16, max_iter=50).final
    spec = write_spec(tmp_path, "b.json", to_spec(board))
    assert main(["certify", spec, "--tau-cm"]) == 1
    assert json.loads(capsys.readouterr().out)["tau_cm"]["passed"] is False
    assert main(["refute", spec]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "refuted"


def test_cli_order_shuffles(tmp_path, capsys):
    a = write_spec(tmp_path, "a.json", {"kind": "shuffle_a", "dim": 2})
    b = write_spec(tmp_path, "b.json", {"kind": "shuffle_b", "dim": 2})
    assert main(["order", a, b]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pointwise"]["relation"] == "strictly_below"
    assert doc["concordance"]["relation"] == "strictly_below"


def test_cli_transform_roundtrip(tmp_path, capsys):
    spec = write_spec(tmp_path, "m.json", {"kind": "upper_frechet", "dim": 2})
    assert main(["transform", spec, "--reflect", "0", "--discretize", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "checkerboard"
    C = parse_spec(doc)
    # reflect(M, {0}) = W; its 4-grid board is the antidiagonal one
    assert C.cdf([0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)


def test_cli_validate_failure_exit_code(tmp_path, capsys):
    doc = {
        "kind": "checkerboard",
        "dim": 2,
        "cuts": [[0, 0.5, 1], [0, 0.5, 1]],
        "shape": [2, 2],
        "masses": [1.0, 0.0, 0.0, 0.0],
    }
    spec = write_spec(tmp_path, "bad.json", doc)
    # constructor-level rejection surfaces as a clean nonzero exit
    code = main(["validate", spec])
    assert code in (1, 2)


def test_cli_validate_reads_a_board_at_its_vertices(tmp_path, capsys):
    board = write_spec(tmp_path, "b.json", to_spec(random_checkerboard(3, 8, seed=0)))
    assert main(["validate", board]) == 0
    assert json.loads(capsys.readouterr().out)["grid"].startswith("checkerboard vertices")
    assert main(["validate", board, "--grid", "32"]) == 0
    assert json.loads(capsys.readouterr().out)["grid"].startswith("uniform 32+breakpoints")
    # Pi is exactly a board, but validate does not lower it
    pi = write_spec(tmp_path, "pi.json", {"kind": "product", "dim": 3})
    assert main(["validate", pi]) == 0
    assert json.loads(capsys.readouterr().out)["grid"].startswith("uniform 32+breakpoints")


def test_cli_descend_emits_trace(tmp_path, capsys):
    spec = write_spec(tmp_path, "pi.json", {"kind": "product", "dim": 2})
    trace = tmp_path / "trace.csv"
    assert main(["descend", spec, "--n", "8", "--trace-out", str(trace)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "converged"
    lines = trace.read_text().strip().splitlines()
    assert lines[0].startswith("iteration,kendall_integral,rho")
    assert len(lines) == doc["iterations"] + 1


def test_cli_unwritable_output_exits_two_without_a_traceback(tmp_path, capsys):
    spec = write_spec(tmp_path, "pi.json", {"kind": "product", "dim": 2})
    missing = tmp_path / "missing" / "dir"
    for argv, path in (
        (["eval", spec, "--point", "0.5,0.5", "--out", str(missing / "x.json")], missing / "x.json"),
        (["descend", spec, "--n", "8", "--trace-out", str(missing / "t.csv")], missing / "t.csv"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {path}: No such file or directory\n"
        assert captured.out == ""
        assert not missing.exists()


def test_cli_certify_k_cm(tmp_path, capsys):
    spec = write_spec(tmp_path, "tri.json", {"kind": "triangle", "dim": 3})
    hyp = write_spec(
        tmp_path,
        "hyp.json",
        {"K": [0, 1, 2], "g": [{"form": "affine"}] * 3, "c": 1.5},
    )
    assert main(["certify", spec, "--tau-cm", "--k-cm", hyp]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau_cm"]["passed"] is True
    assert doc["k_cm"]["band_mass"] == 1.0


@pytest.mark.parametrize(
    "text", ["", "[1]", '{"K": ["a"], "g": [{"form": "affine"}], "c": 1}']
)
def test_cli_certify_malformed_hyperplane_exits_two(tmp_path, text):
    spec = write_spec(tmp_path, "tri.json", {"kind": "triangle", "dim": 3})
    hyp = tmp_path / "hyp.json"
    hyp.write_text(text)
    assert main(["certify", spec, "--k-cm", str(hyp)]) == 2
    assert main(["certify", spec, "--k-cm", str(tmp_path / "missing.json")]) == 2


def test_cli_support_rows_on_segments(tmp_path, capsys):
    spec = write_spec(tmp_path, "a.json", {"kind": "shuffle_a", "dim": 2})
    assert main(["support", spec, "--samples", "50", "--seed", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "u1,u2"
    pts = np.array([[float(x) for x in line.split(",")] for line in out[1:]])
    # every sample sits on one of the two shuffle segments
    on_first = np.abs(pts[:, 1] - pts[:, 0] - 0.5) < 1e-9
    on_second = np.abs(pts[:, 0] - pts[:, 1] - 0.5) < 1e-9
    assert np.all(on_first | on_second)


def test_cli_support_unsamplable_exits_one(tmp_path):
    spec = write_spec(tmp_path, "cl.json", {"kind": "clayton_extreme", "dim": 3})
    assert main(["support", spec]) == 1


def test_cli_malformed_spec_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["eval", str(path), "--point", "0.5,0.5"]) == 2


def test_cli_determinism(tmp_path, capsys):
    spec = write_spec(tmp_path, "tri.json", {"kind": "triangle", "dim": 3})
    main(["support", spec, "--samples", "10", "--seed", "9"])
    first = capsys.readouterr().out
    main(["support", spec, "--samples", "10", "--seed", "9"])
    assert capsys.readouterr().out == first


def test_cli_checkerboard_masses_not_fitting_shape_exit_two(tmp_path, capsys):
    doc = {
        "kind": "checkerboard",
        "dim": 2,
        "cuts": [[0, 0.5, 1], [0, 0.5, 1]],
        "shape": [2, 2],
        "masses": [0.5, 0.0, 0.0],
    }
    assert main(["validate", write_spec(tmp_path, "b.json", doc)]) == 2
    assert "cannot reshape" in capsys.readouterr().err


def test_cli_non_numeric_point_exit_two(tmp_path, capsys):
    spec = write_spec(tmp_path, "pi.json", {"kind": "product", "dim": 2})
    assert main(["eval", spec, "--point", "0.5,abc"]) == 2
    assert "0.5,abc" in capsys.readouterr().err


def test_cli_segment_without_end_names_the_field(tmp_path, capsys):
    doc = {"kind": "segments", "dim": 2, "segments": [{"start": [0, 0], "mass": 1.0}]}
    assert main(["eval", write_spec(tmp_path, "s.json", doc), "--point", "0.5,0.5"]) == 2
    err = capsys.readouterr().err
    assert "'end'" in err and "unknown copula kind" not in err


@pytest.mark.parametrize(
    "verb, flag, value",
    [
        ("refute", "--tol", "nan"),
        ("refute", "--tol", "-1"),
        ("refute", "--tol", "inf"),
        ("certify", "--eps", "nan"),
        ("certify", "--eps", "-0.5"),
    ],
)
def test_cli_rejects_bad_tolerance_naming_the_flag(tmp_path, capsys, verb, flag, value):
    # --tol nan used to skip the tau-CM verdict and fail in the surgery
    spec = write_spec(tmp_path, "tri.json", {"kind": "triangle", "dim": 3})
    assert main([verb, spec, flag, value]) == 2
    err = capsys.readouterr().err
    assert flag in err and "surgery corners" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["validate", "--tol", "1e-3"],
        ["eval", "--point", "0.5,0.5,0.5", "--tol", "1e-3"],
        ["measure", "--tol", "1e-3"],
        ["transform", "--tol", "1e-3"],
        ["support", "--tol", "1e-3"],
        ["support", "--format", "json"],
    ],
)
def test_cli_rejects_an_option_the_verb_does_not_read(tmp_path, capsys, args):
    # validate --tol 5 used to exit 0 and still judge at 1e-9; support
    # --format json still wrote CSV
    spec = write_spec(tmp_path, "tri.json", {"kind": "triangle", "dim": 3})
    assert main([args[0], spec] + args[1:]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_tol_reaches_the_verbs_that_read_it(tmp_path, capsys):
    spec = write_spec(tmp_path, "tri.json", {"kind": "triangle", "dim": 3})
    assert main(["refute", spec, "--tol", "1e-9"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "tau_cm"
    assert main(["certify", spec, "--tau-cm", "--tol", "1e-9"]) == 0
    assert main(["order", spec, spec, "--tol", "1e-9", "--grid", "4"]) == 0


MIXTURE_NEAR_W = {
    "kind": "mixture",
    "dim": 2,
    "parts": [
        {"weight": 0.999999, "copula": {"kind": "lower_frechet", "dim": 2}},
        {"weight": 0.000001, "copula": {"kind": "product", "dim": 2}},
    ],
}


def test_cli_tau_cm_verdict_reads_its_tol(tmp_path, capsys):
    # a tau-CM defect of 2.5e-7 fails at the default 1e-9 and passes at 1e-3
    spec = write_spec(tmp_path, "mix.json", MIXTURE_NEAR_W)
    C = parse_spec(MIXTURE_NEAR_W)
    assert tau_cm_certificate(C).passed is False
    assert tau_cm_certificate(C, tol=1e-3).passed is True
    cert = refute_minimality(C, tol=1e-3)
    assert isinstance(cert, TauCmCertificate) and cert.passed is True
    assert main(["certify", spec, "--tau-cm"]) == 1
    assert json.loads(capsys.readouterr().out)["tau_cm"]["passed"] is False
    assert main(["certify", spec, "--tau-cm", "--tol", "1e-3"]) == 0
    doc = json.loads(capsys.readouterr().out)["tau_cm"]
    assert doc["passed"] is True and doc["defect"] == pytest.approx(2.5e-7)
    assert main(["refute", spec, "--tol", "1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "tau_cm"


def test_cli_verdicts_echo_their_tol(tmp_path, capsys):
    spec = write_spec(tmp_path, "tri.json", {"kind": "triangle", "dim": 3})
    hyp = write_spec(
        tmp_path, "hyp.json", {"K": [0, 1, 2], "g": [{"form": "affine"}] * 3, "c": 1.5}
    )
    assert main(["certify", spec, "--tau-cm", "--k-cm", hyp, "--tol", "0.3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau_cm"]["tol"] == doc["k_cm"]["tol"] == 0.3
    assert main(["refute", spec, "--tol", "0.3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "tau_cm" and doc["tol"] == 0.3
    # validate judges at its fixed bound, and says which
    assert main(["validate", spec]) == 0
    assert json.loads(capsys.readouterr().out)["tol"] == 1e-9


@pytest.mark.parametrize(
    "args",
    [
        ["certify", "pi2.json", "--tau-cm", "--grid", "1"],
        ["refute", "m3.json", "--grid", "1"],
        ["order", "pi2.json", "m2.json", "--grid", "1"],
        ["order", "m2.json", "pi2.json", "--grid", "1"],
        ["validate", "pi2.json", "--grid", "1"],
    ],
    ids=["certify", "refute", "order", "order-swapped", "validate"],
)
def test_cli_grid_without_an_interior_node_exits_two(tmp_path, capsys, args):
    # one cell per axis leaves every axis of Pi_2, M_2 and M_3 at {0, 1}:
    # no interior vertex to scan, and only the corners every copula shares
    for name, doc in (
        ("pi2.json", {"kind": "product", "dim": 2}),
        ("m2.json", {"kind": "upper_frechet", "dim": 2}),
        ("m3.json", {"kind": "upper_frechet", "dim": 3}),
    ):
        write_spec(tmp_path, name, doc)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: grid resolution must be >= 2, got 1\n"


def test_cli_csv_report_flattens_nested_keys(tmp_path, capsys):
    board = random_checkerboard(2, 3, seed=0)
    spec = write_spec(tmp_path, "board.json", to_spec(board))
    assert main(["refute", spec, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    assert "schema_version,1" in lines
    assert "order_check.relation,strictly_below" in lines
    # a list value is one JSON cell, commas and all
    rows = dict(line.split(",", 1) for line in lines[1:])
    assert rows["a"].startswith("[") and len(json.loads(rows["a"])) == 2
    assert main(["measure", spec, "--tau", "--format", "csv"]) == 0
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:])
    assert float(rows["kendall_tau.value"]) == kendall_tau(board).value
    assert "spearman_rho.value" not in rows


def test_cli_reproduce_writes_the_passing_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["reproduce", "paper-values", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "quantity,d,paper_value,computed,error,method,tol,passed"
    assert len(lines) == 39
    assert all(line.endswith(",true") for line in lines[1:])
    assert "38/38 rows passed" in capsys.readouterr().err


# -- CLI robustness: mutated specs and arguments -----------------------

VALID_SPECS = [
    {"kind": "product", "dim": 2},
    {"kind": "upper_frechet", "dim": 2, "representation": "analytic"},
    {"kind": "reflected", "dim": 2, "K": [0], "inner": {"kind": "product", "dim": 2}},
    {
        "kind": "mixture",
        "dim": 2,
        "parts": [
            {"weight": 0.5, "copula": {"kind": "product", "dim": 2}},
            {"weight": 0.5, "copula": {"kind": "shuffle_a", "dim": 2}},
        ],
    },
    to_spec(random_checkerboard(2, 3, seed=0)),
    to_spec(shuffle_a()),
]

JUNK = st.sampled_from(
    [None, "x", -1, 0, 2.5, True, [], {}, [1, "a"], float("nan"), 1e300, [[0.5]]]
)


def _paths(doc, prefix=()):
    """Every (container path, key) in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, val in items:
        yield prefix, key
        if isinstance(val, (dict, list)):
            yield from _paths(val, prefix + (key,))


@st.composite
def mutated_specs(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_SPECS))))
    for _ in range(draw(st.integers(0, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        prefix, key = draw(st.sampled_from(paths))
        node = doc
        for k in prefix:
            node = node[k]
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = copy.deepcopy(draw(JUNK))
    return doc


NUMBER_LISTS = st.sampled_from(
    ["0.5,0.5", "0.5,abc", "", "nan,0.5", "2,0.5", "0.5", "0,1", "1,0", "-1,0.5", "1e400,0"]
)

ARGS = st.one_of(
    NUMBER_LISTS.map(lambda p: ["eval", "--point", p]),
    NUMBER_LISTS.map(lambda p: ["eval", "--survival", "--point", p]),
    st.integers(-2, 3).map(lambda g: ["validate", "--grid", str(g)]),
    NUMBER_LISTS.map(lambda k: ["transform", "--reflect", k]),
    NUMBER_LISTS.map(lambda k: ["transform", "--permute", k]),
    st.integers(-2, 3).map(lambda n: ["transform", "--discretize", str(n)]),
)


@settings(max_examples=60, deadline=None)
@given(mutated_specs(), ARGS)
def test_cli_mutated_input_never_leaks_a_traceback(tmp_path_factory, doc, args):
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps(doc))
    argv = [args[0], str(path)] + args[1:]
    assert main(argv) in (0, 1, 2)


@pytest.mark.parametrize(
    "doc, exact",
    [
        ({"kind": "triangle", "dim": 3}, True),
        ({"kind": "clayton_extreme", "dim": 3}, True),
        (
            to_spec(make_glue_product(make_basic("lower_frechet_2d", 2), make_basic("product", 1))),
            True,
        ),
        # a mixture with a Pi piece: its support is not read, so the scan decides
        (MIXTURE_NEAR_W, False),
        ({"kind": "lower_frechet", "dim": 2, "representation": "analytic"}, True),
        ({"kind": "permuted", "sigma": [2, 0, 1], "inner": {"kind": "triangle", "dim": 3}}, True),
        ({"kind": "reflected", "K": [0, 1, 2], "inner": {"kind": "triangle", "dim": 3}}, True),
    ],
    ids=[
        "triangle",
        "clayton_extreme",
        "glue(W, Pi_1)",
        "mixture_near_W",
        "W analytic",
        "permuted triangle",
        "reflected triangle",
    ],
)
def test_cli_tau_cm_reports_an_exact_verdict(tmp_path, capsys, doc, exact):
    assert tau_cm_certificate(parse_spec(doc)).exact is exact
    spec = write_spec(tmp_path, "c.json", doc)
    assert main(["certify", spec, "--tau-cm"]) == (0 if exact else 1)
    section = json.loads(capsys.readouterr().out)["tau_cm"]
    assert section["exact"] is exact and section["passed"] is exact
    if exact:
        assert section["defect"] == 0.0 and section["worst_point"] == []
        assert main(["refute", spec]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == "tau_cm" and doc["exact"] is True


def test_cli_refutes_a_pair_between_grid_lines(tmp_path, capsys):
    # the comparable pair of the short segment lies between the scan's grid
    # lines; the support test finds it and the scan reads it at its midpoint
    spec = write_spec(
        tmp_path,
        "two.json",
        {
            "schema_version": 1,
            "dim": 2,
            "kind": "segments",
            "segments": [
                {"start": [0.0, 1.0], "end": [0.99, 0.01], "mass": 0.99},
                {"start": [0.99, 0.0], "end": [1.0, 0.01], "mass": 0.01},
            ],
        },
    )
    assert main(["refute", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "refuted"
    assert doc["p"] == pytest.approx(0.005, abs=1e-12)
    assert doc["order_check"]["relation"] == "strictly_below"
    assert main(["certify", spec, "--tau-cm"]) == 1
    section = json.loads(capsys.readouterr().out)["tau_cm"]
    assert section["passed"] is False and section["exact"] is False
    assert section["defect"] == pytest.approx(0.005, abs=1e-12)


def test_cli_refutes_a_board_with_cuts_within_cut_gap(tmp_path, capsys):
    # two of the board's own cuts lie 5e-14 apart; the surgery keeps both
    cuts = [0, 0.25, 0.5, 0.50000000000005, 1.0]
    masses = [0.25, 0, 0, 0, 0, 0.25, 0, 0, 0, 0, 5e-14, 0, 0, 0, 0, 0.49999999999995]
    doc = {"schema_version": 1, "kind": "checkerboard", "dim": 2, "cuts": [cuts, cuts],
           "shape": [4, 4], "masses": masses}
    spec = write_spec(tmp_path, "close.json", doc)
    assert main(["refute", spec]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == "refuted"
    assert out["order_check"]["relation"] == "strictly_below"
    assert out["witness_copula"]["cuts"] == [cuts, cuts]


MEMORY_ERROR_RUN = """
import sys
import mincop.cli as cli

def exhausted(*args, **kwargs):
    raise MemoryError(*sys.argv[2:])

cli.refute_minimality = exhausted
sys.exit(cli.main(["refute", sys.argv[1]]))
"""


@pytest.mark.parametrize(
    "reason, line",
    [
        (["Unable to allocate 1.56 GiB for an array with shape (100, 128, 128, 128)"],
         "memory error: Unable to allocate 1.56 GiB for an array with shape (100, 128, 128, 128)"),
        ([], "memory error: out of memory"),
    ],
    ids=["numpy", "bare"],
)
def test_cli_memory_exhaustion_exits_two_without_a_traceback(tmp_path, reason, line):
    # a verb that runs out of memory (numpy raises a MemoryError subclass)
    # reports one named line on stderr and exits 2, in a process of its own
    # so that an uncaught exception would print its traceback there
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mincop

    src = str(Path(mincop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    spec = write_spec(tmp_path, "pi.json", {"kind": "product", "dim": 2})
    run = subprocess.run(
        [sys.executable, "-c", MEMORY_ERROR_RUN, spec, *reason],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr == line + "\n"
    assert run.stdout == ""


def test_reports_and_messages_hold_plain_floats():
    # numpy 2 writes a numpy scalar as np.float64(0.5) in a repr and in a
    # message's {!r}; every coordinate and value they show is a float
    import re

    from mincop import ValidationError, concordance_leq, shuffle_b
    from mincop.core import CheckerboardCopula, SegmentCopula

    cert = tau_cm_certificate(make_basic("upper_frechet", 2), grid=4)
    order = concordance_leq(shuffle_a(), shuffle_b())
    assert cert.worst_point == (0.5, 0.5) and order.witness_points
    for point in (cert.worst_point, *order.witness_points):
        assert all(type(x) is float for x in point)
    assert "np.float64" not in repr(cert) + repr(order)
    for build, message in (
        (lambda: CheckerboardCopula([[0.0, 1.0], [0.0, 1.0]], [[2.0]]), "total mass 2.0 != 1"),
        (lambda: SegmentCopula([[0.0, 0.0]], [[1.0, 1.0]], [0.5]), "segment masses sum to 0.5, not 1"),
    ):
        with pytest.raises(ValidationError, match=re.escape(message)):
            build()

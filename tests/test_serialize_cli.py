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
    make_basic,
    make_glue_product,
    make_mixture,
    make_reflected_upper,
    make_triangle_3d,
    parse_spec,
    random_checkerboard,
    refute_minimality,
    shuffle_a,
    to_spec,
)
from mincop.cli import main
from mincop.core import grid_points


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

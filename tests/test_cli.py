"""The command line front end, exercised in process through main()."""

import io
import json
import os
import subprocess
import sys
import tempfile
import types
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_scenario_io import MUTATIONS, mutated, nodes, scenario_documents
from twobox import ExpressionError, HamiltonianSpec, ProjectorSpec
from twobox.cli import (
    format_complex,
    fraction_annotation,
    main,
    parse_operator_expression,
    parse_operator_expressions,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_complex():
    assert format_complex(0j) == "0"
    assert format_complex(0.125 + 0.125j) == "0.125 + 0.125i"
    assert format_complex(-0.375 - 0.375j) == "-0.375 - 0.375i"
    assert format_complex(1.0 + 0j) == "1"
    assert format_complex(-0.5j) == "-0.5i"
    assert format_complex(complex(-0.0, 1.0)) == "1i"


def test_fraction_annotation():
    assert fraction_annotation(0.125 + 0.125j) == "(= (1+i)/8)"
    assert fraction_annotation(complex(0, -0.125)) == "(= -i/8)"
    assert fraction_annotation(0.5 + 0j) == "(= 1/2)"
    assert fraction_annotation(-0.375 - 0.375j) == "(= (-3-3i)/8)"
    assert fraction_annotation(2.0 + 0j) is None  # integers carry no tag
    assert fraction_annotation(0.1234567 + 0j) is None
    assert fraction_annotation(1 / 64 + 0j) == "(= 1/64)"
    for value in (complex("inf"), complex(0.5, float("inf")), complex("nan"),
                  complex(1.7e308, 0.5)):
        assert fraction_annotation(value) is None


def test_list_command(capsys):
    code, out, err = run_cli(capsys, "list")
    assert code == 0
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == ["pigeonhole3", "transition", "detailed-vs-global",
                     "coherent-enhancement", "spin-relabel", "eigenspace-degeneracy"]


def test_run_pigeonhole_table(capsys):
    code, out, err = run_cli(capsys, "run", "pigeonhole3")
    assert code == 0
    assert "pre:  |+> ⊗ |+> ⊗ |+>" in out
    assert "post: |+i> ⊗ |+i> ⊗ |+i>" in out
    assert "amplitude = 0  [vanishing]" in out
    assert "amplitude = 0.125 + 0.125i (= (1+i)/8)" in out
    assert "weak_value = -0.5 (= -1/2)" in out
    assert "weak_value = 0.5 (= 1/2)" in out
    assert "idempotency_defect = 2" in out
    assert "resolution_of_identity = true" in out
    assert "postselection is fixed to the +i superposition" in out


def test_run_transition_table(capsys):
    code, out, err = run_cli(capsys, "run", "transition")
    assert code == 0
    assert "[vanishing]" in out
    assert "-0.375 - 0.375i (= (-3-3i)/8)" in out


def test_run_spin_relabel_table(capsys):
    code, out, err = run_cli(capsys, "run", "spin-relabel")
    assert code == 0
    assert "pre:  |x,+> ⊗ |x,+> ⊗ |x,+>" in out
    assert "post: |y,+> ⊗ |y,+> ⊗ |y,+>" in out
    # identical numbers as the box run, only the state names change
    assert "weak_value = -0.5 (= -1/2)" in out


def test_run_detailed_vs_global_exits_two(capsys):
    code, out, err = run_cli(capsys, "run", "detailed-vs-global")
    assert code == 2
    assert "detailed = 0.0625 (= 1/16)" in out
    assert "error: not a legitimate question" in out


def test_run_json_output(capsys):
    code, out, err = run_cli(capsys, "run", "pigeonhole3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["scenario"] == "pigeonhole3"
    first = doc["queries"][0]["results"][0]
    assert first["value"] == [0.0, 0.0]
    assert first["vanishing"] is True
    code2, out2, err2 = run_cli(capsys, "run", "pigeonhole3", "--format", "json")
    assert out2 == out  # byte for byte deterministic


def test_run_scenario_file(capsys, tmp_path):
    doc = {
        "name": "from-file",
        "particles": 2,
        "pre": ["+", "+"],
        "post": ["+", "+"],
        "queries": [{"type": "weak_value",
                     "projector": {"kind": "pair_same", "pair": [1, 2]}}],
    }
    path = tmp_path / "from-file.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 0
    assert "weak_value = 0.5 (= 1/2)" in out
    code, out, err = run_cli(capsys, "run", "--file", str(path))
    assert code == 0


def test_run_file_with_failing_query_exits_two(capsys, tmp_path):
    doc = {
        "name": "orthogonal",
        "particles": 1,
        "pre": ["L"],
        "post": ["R"],
        "queries": [{"type": "weak_value",
                     "projector": {"kind": "box", "particle": 1, "box": "L"}}],
    }
    path = tmp_path / "orthogonal.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "error: orthogonal pre/postselection" in out


def test_run_weak_value_sum_at_a_tiny_tolerance(capsys, tmp_path):
    # the linearity cross-check misses by an ulp here; it must not fail at --tolerance 1e-20
    doc = {
        "name": "wv",
        "particles": 3,
        "pre": [{"cL": [0.6, 0.1], "cR": [0.3, -0.735]}, "+", "+i"],
        "post": [{"cL": [0.2, 0.7], "cR": [-0.5, 0.469]}, "-i", "+"],
        "queries": [{"type": "weak_value_sum",
                     "projectors": [{"kind": "pair_same", "pair": [1, 2]},
                                    {"kind": "pair_diff", "pair": [2, 3]},
                                    {"kind": "box", "particle": 3, "box": "L"},
                                    {"kind": "all_same"}]}],
    }
    path = tmp_path / "wv.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", str(path), "--tolerance", "1e-20")
    assert (code, err) == (0, "")
    assert "weak_value_sum = 4.52006 + 0.314665i" in out


def test_run_error_paths(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", "no-such-scenario")
    assert code == 1
    assert "error: unknown scenario" in err

    code, out, err = run_cli(capsys, "run", str(tmp_path / "absent.json"))
    assert code == 1
    assert "cannot read scenario file" in err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x"}))
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 1
    assert "required" in err

    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps({
        "name": "x", "particles": 3, "pre": ["+", "+", "+"],
        "post": ["+", "+", "+"], "queries": [{"type": "abl_amplitude"}]}))
    code, out, err = run_cli(capsys, "run", str(worse))
    assert code == 1
    assert "$.queries[0]" in err

    code, out, err = run_cli(capsys, "run", "pigeonhole3", "--file", str(bad))
    assert code == 1
    assert "exactly one scenario" in err

    code, out, err = run_cli(capsys, "run")
    assert code == 1
    assert "exactly one scenario" in err

    code, out, err = run_cli(capsys, "run", "pigeonhole3", "--tolerance", "0")
    assert code == 1
    assert "tolerance must be positive" in err


@pytest.mark.parametrize("text, path", [
    ('"pre": [{"cL": [NaN, 0], "cR": [1, 0]}, "+"], "post": ["+", "+"]', "$.pre[0]"),
    ('"pre": ["+", "+"], "post": ["+", {"cL": [1e309, 0], "cR": [1, 0]}]', "$.post[1]"),
    ('"pre": ["+", "+"], "post": ["+", "+"], "queries": [{"type": "predicate", '
     '"check": "eigenstate", "operators": [{"kind": "all_same"}], "eigenvalue": [1, 0], '
     '"state": {"product": ["+", {"cL": [1e309, 0], "cR": [1, 0]}]}}]',
     "$.queries[0].state.product[1]"),
])
def test_run_refuses_non_finite_coefficients(capsys, tmp_path, text, path):
    if '"queries"' not in text:
        text += ', "queries": []'
    doc = tmp_path / "nonfinite.json"
    doc.write_text('{"name": "x", "particles": 2, ' + text + "}")
    code, out, err = run_cli(capsys, "run", str(doc))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: coefficients must be finite\n"


HUGE = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("text, message", [
    ('"pre": [{"cL": [HUGE, 0], "cR": [1, 0]}, "+"], "post": ["+", "+"]',
     "$.pre[0]: coefficients must lie within the float range"),
    ('"pre": ["+", "+"], "post": ["+", {"cL": [1, 0], "cR": [0, HUGE]}]',
     "$.post[1]: coefficients must lie within the float range"),
    ('"pre": ["+", "+"], "post": ["+", "+"], "queries": [{"type": "transition_element", '
     '"hamiltonian": [{"coeff": [HUGE, 0], "projector": {"kind": "all_same"}}]}]',
     "$.queries[0]: coefficients must lie within the float range"),
    ('"pre": ["+", "+"], "post": ["+", "+"], "queries": [{"type": "predicate", '
     '"check": "eigenstate", "operators": [{"kind": "all_same"}], "eigenvalue": [1, HUGE], '
     '"state": {"product": ["L", "L"]}}]',
     "$.queries[0]: coefficients must lie within the float range"),
    ('"pre": ["+", "+"], "post": ["+", "+"], "queries": [{"type": "predicate", '
     '"check": "eigenstate", "operators": [{"kind": "all_same"}], "eigenvalue": [1, 0], '
     '"state": {"amplitudes": [[HUGE, 0], [0, 0], [0, 0], [0, 0]]}}]',
     "$.queries[0].state: coefficients must lie within the float range"),
    ('"pre": [{"cL": [0, 0], "cR": [0, 0]}, "+"], "post": ["+", "+"]',
     "$.pre[0]: unnormalizable state"),
])
def test_run_refuses_unusable_coefficients_with_a_path(capsys, tmp_path, text, message):
    if '"queries"' not in text:
        text += ', "queries": []'
    doc = tmp_path / "unusable.json"
    doc.write_text('{"name": "x", "particles": 2, ' + text.replace("HUGE", HUGE) + "}")
    for fmt in ("table", "json"):
        code, out, err = run_cli(capsys, "run", str(doc), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_run_normalizes_a_pair_with_a_subnormal_squared_norm(capsys, tmp_path, fmt):
    doc = {"name": "tiny", "particles": 1, "pre": [{"cL": [1e-160, 0], "cR": [0, 0]}],
           "post": ["L"], "queries": [{"type": "abl_amplitude",
                                       "projector": {"kind": "box", "particle": 1, "box": "L"}}]}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", str(path), "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out)["queries"][0]["results"][0]["value"] == [1.0, 0.0]


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_run_reports_a_finite_value_beyond_float_magnitude(capsys, tmp_path, fmt):
    # |1.7e308 (1+i)| overflows; the value is finite, so it is reported and does not vanish
    doc = {"name": "big", "particles": 1, "pre": ["L"], "post": ["L"],
           "queries": [{"type": "transition_element", "hamiltonian": [
               {"coeff": [1.7e308, 1.7e308],
                "projector": {"kind": "box", "particle": 1, "box": "L"}}]}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", str(path), "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        value = json.loads(out)["queries"][0]["results"][0]
        assert value["value"] == [1.7e308, 1.7e308]
        assert value["vanishing"] is False
        assert value["magnitude"] == float("inf")
    else:
        assert "transition_element = 1.7e+308 + 1.7e+308i\n" in out + "\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_run_renders_a_value_beyond_the_float_range(capsys, tmp_path, fmt):
    # (1.7e308 (1+i)) <post|box(1,L)|pre> is 1.7e308 sqrt(2), which rounds to inf
    doc = {"name": "inf", "particles": 1, "pre": ["L"], "post": [{"cL": [1, 1], "cR": [0, 0]}],
           "queries": [{"type": "transition_element", "hamiltonian": [
               {"coeff": [1.7e308, 1.7e308],
                "projector": {"kind": "box", "particle": 1, "box": "L"}}]}]}
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", str(path), "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        value = json.loads(out)["queries"][0]["results"][0]
        assert value["value"] == [float("inf"), 0.0]
        assert value["vanishing"] is False
    else:
        assert "    transition_element = inf\n" in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_is_reported_on_one_line(capsys, tmp_path):
    code, out, err = run_cli(capsys, "check", "1e308*pair_same(1,2) + 1e308*pair_same(1,2)")
    assert (code, out, err) == (1, "", "error: operator diagonal must be finite\n")
    doc = {"name": "overflow", "particles": 2, "pre": ["+", "+"], "post": ["+", "+"],
           "queries": [{"type": "transition_element", "hamiltonian": [
               {"coeff": [1e308, 0], "projector": {"kind": "pair_same", "pair": [1, 2]}},
               {"coeff": [1e308, 0], "projector": {"kind": "all_same"}}]}]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, err) == (2, "")
    assert "error: operator diagonal must be finite" in out


def test_error_lines_quote_a_capped_value(capsys, tmp_path):
    deep = []
    for _ in range(900):
        deep = [deep]
    doc = {"name": "deep", "particles": 1, "pre": ["+"], "post": ["+"],
           "queries": [{"type": "zz", "a": deep}]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: $.queries[0]: {'type': 'zz', 'a': [[[[")
    assert err.endswith("[[[... is not valid under any of the given schemas\n")
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("command, name", [("run", "bad.json"), ("check", "bad.txt")])
def test_undecodable_files_exit_one(capsys, tmp_path, command, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read ") and "can't decode byte 0xff" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "tiny"])
@pytest.mark.parametrize("command", [["run", "pigeonhole3"], ["check", "all_same"]])
def test_tolerance_must_be_finite_and_positive(capsys, command, value):
    code, out, err = run_cli(capsys, *command, "--tolerance", value)
    assert code == 1
    assert out == ""
    assert err == f"error: argument --tolerance: tolerance must be positive and finite, got {value!r}\n"


def test_usage_errors_exit_one(capsys):
    code, out, err = run_cli(capsys)
    assert code == 1
    assert "error:" in err
    code, out, err = run_cli(capsys, "run", "pigeonhole3", "--format", "yaml")
    assert code == 1


def test_check_single_expression(capsys):
    code, out, err = run_cli(capsys, "check", "pair_same(1,2)")
    assert code == 0
    assert "hermitian = true" in out
    assert "is_projector = true" in out
    assert "idempotency_defect = 0" in out


def test_check_overlapping_sum(capsys):
    code, out, err = run_cli(capsys, "check", "pair_same(1,2) + pair_same(2,3)")
    assert code == 0
    assert "is_projector = false" in out
    assert "idempotency_defect = 2" in out


def test_check_expression_file(capsys, tmp_path):
    path = tmp_path / "refined.txt"
    path.write_text("# the refined correlation questions\n"
                    "sd(1,2;3)\nsd(2,3;1)\nsd(3,1;2)\nall_same\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 0
    assert out.count("is_projector = true") == 4
    assert "resolution_of_identity = true" in out
    assert "[0] vs [1] = true" in out


def test_check_json_format(capsys):
    code, out, err = run_cli(capsys, "check", "all_same\npair_diff(1,2)",
                             "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["particles"] == 3
    assert [op["expression"] for op in doc["operators"]] == ["all_same", "pair_diff(1,2)"]
    assert doc["resolution_of_identity"] is False
    assert doc["pairwise_orthogonal"][0]["pair"] == [0, 1]


def test_check_error_reporting(capsys):
    code, out, err = run_cli(capsys, "check", "pair_same(1,5)")
    assert code == 1
    assert "error: line 1: column 1: pair member 5 out of range 1..3" in err

    code, out, err = run_cli(capsys, "check", "pair_same(1,2) @ all_same")
    assert code == 1
    assert "unexpected character" in err

    code, out, err = run_cli(capsys, "check", "# nothing here")
    assert code == 1
    assert "no operator expressions found" in err

    code, out, err = run_cli(capsys, "check", "all_same", "--particles", "5",
                             "--tolerance", "-1")
    assert code == 1
    assert "tolerance must be positive" in err


def test_expression_parser():
    spec = parse_operator_expression("2*pair_same(1,2) - all_same", 3)
    assert spec.terms[0] == (2 + 0j, ProjectorSpec.pair_same(1, 2, 3))
    assert spec.terms[1] == (-1 + 0j, ProjectorSpec.all_same(3))
    spec = parse_operator_expression("0.5*box(2,R) + (1+2i)*sd(1,2;3)", 3)
    assert spec.terms[0][0] == 0.5
    assert spec.terms[1][0] == 1 + 2j
    spec = parse_operator_expression("i*all_same", 2)
    assert spec.terms[0][0] == 1j
    spec = parse_operator_expression("-pair_diff(2,3)", 3)
    assert spec.terms[0][0] == -1
    spec = parse_operator_expression("sd(1,2,3)", 3)  # comma accepted for the mark
    assert spec.terms[0][1] == ProjectorSpec.sd(1, 2, 3, 3)


def test_expression_parser_rejections():
    with pytest.raises(ExpressionError, match="empty expression"):
        parse_operator_expression("   ", 3)
    with pytest.raises(ExpressionError, match="unknown operator"):
        parse_operator_expression("swap(1,2)", 3)
    with pytest.raises(ExpressionError, match="expected '\\+' or '-'"):
        parse_operator_expression("all_same all_same", 3)
    with pytest.raises(ExpressionError, match="unexpected end"):
        parse_operator_expression("pair_same(1,", 3)
    with pytest.raises(ExpressionError, match="line 2"):
        parse_operator_expressions("all_same\npair_same(9,9)", 3)


# what label() prints: at most 6 significant digits per part, or an integral
# magnitude of 2**53 and more in shortest round-trip form
six_digits = st.builds(lambda m, e: float(f"{m}e{e}"),
                       st.integers(-999999, 999999), st.integers(-12, 12))
huge = st.builds(lambda x, sign: sign * x,
                 st.floats(min_value=2.0**53, max_value=sys.float_info.max),
                 st.sampled_from([1, -1]))
parts = st.one_of(six_digits, huge)
coefficients = st.one_of(st.just(1 + 0j), parts.map(complex),
                         parts.map(lambda y: complex(0, y)),
                         st.builds(complex, parts, parts))


def projector_specs(n):
    """Every kind of ProjectorSpec on n >= 2 particles."""
    distinct = lambda k: st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    kinds = [st.just(ProjectorSpec.all_same(n)),
             st.builds(ProjectorSpec.box_occupation, st.integers(1, n),
                       st.sampled_from("LR"), st.just(n)),
             distinct(2).map(lambda p: ProjectorSpec.pair_same(*p, n)),
             distinct(2).map(lambda p: ProjectorSpec.pair_diff(*p, n))]
    if n >= 3:
        kinds.append(distinct(3).map(lambda t: ProjectorSpec.sd(*t, n)))
    return st.one_of(kinds)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 6))
def test_labels_parse_back_to_the_same_spec(data, n):
    terms = data.draw(st.lists(st.tuples(coefficients, projector_specs(n)),
                               min_size=1, max_size=4))
    spec = HamiltonianSpec(tuple(terms), n)
    assert parse_operator_expression(spec.label(), n) == spec


def test_module_entry_point():
    result = subprocess.run([sys.executable, "-m", "twobox", "list"],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert "pigeonhole3" in result.stdout


def test_no_command_imports_jsonschema():
    # scenario files are checked by the package's own parser
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "import sys, twobox, twobox.cli; print('jsonschema' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# JSON text for one field: integers beyond the float range and beyond the digit
# limit of int(), floats at and beyond the float range, NaN and empty containers
HOSTILE = ["1" + "0" * 400, "-" + "9" * 400, "1" + "0" * 5000, "1e308", "-1.7e308",
           "1e-200", "5e-324", "1e999", "-1e999", "NaN", "Infinity", "[]", "{}", '""',
           "[[]]", "-0.0"]
EXPRESSION_PARTS = ["pair_same(", "pair_diff(", "sd(", "box(", "all_same", "1", "2", "3",
                    "0", "13", ",", ";", ")", "(", "+", "-", "*", "i", "L", "R", "0.5", "2i",
                    "1e308", "1e999", "1e-320", "nan", "9" * 400, "9" * 5000, " ", "\n", "#"]


@st.composite
def scenario_texts(draw):
    """A valid scenario document with one field mutated, or replaced by hostile JSON text."""
    doc = draw(scenario_documents())
    if draw(st.booleans()):
        kind = draw(st.sampled_from(sorted(MUTATIONS)))
        path = draw(st.sampled_from([p for p, v in nodes(doc) if MUTATIONS[kind](p, v)]))
        return json.dumps(mutated(doc, path, kind, types.SimpleNamespace(draw=draw)))
    path = draw(st.sampled_from([p for p, _ in nodes(doc) if p]))
    parent = doc  # drawn afresh: the strategies share no list between fields or examples
    for part in path[:-1]:
        parent = parent[part]
    parent[path[-1]] = "@hostile@"
    return json.dumps(doc).replace('"@hostile@"', draw(st.sampled_from(HOSTILE)))


expression_texts = st.one_of(
    st.lists(st.sampled_from(EXPRESSION_PARTS), max_size=12).map("".join),
    st.lists(st.tuples(coefficients, projector_specs(3)), min_size=1, max_size=3)
    .map(lambda terms: HamiltonianSpec(tuple(terms), 3).label()))


@settings(max_examples=100, deadline=None)
@given(text=scenario_texts(), expression=expression_texts,
       particles=st.sampled_from(["1", "3", "12", "13"]))
def test_no_input_ends_in_a_traceback(text, expression, particles):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for argv in (["run", path], ["run", path, "--format", "json"],
                     ["check", expression, "--particles", particles],
                     ["check", expression, "--particles", particles, "--format", "json"]):
            out, err = io.StringIO(), io.StringIO()
            # a warning would reach stderr outside the test run; here it escapes
            with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            assert code in (0, 1, 2), argv
            assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
            assert len(err.getvalue()) <= 500, (argv, err.getvalue())

"""The command line front end, exercised in process through main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twobox import ExpressionError, ProjectorSpec
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


def test_module_entry_point():
    result = subprocess.run([sys.executable, "-m", "twobox", "list"],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert "pigeonhole3" in result.stdout


def test_no_command_imports_jsonschema():
    # scenario files are checked by the package's own validator
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "import sys, twobox, twobox.cli; print('jsonschema' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"

"""Scenario files in, report documents out."""

import json
import math

import pytest

import oracle
from twobox import (
    ProjectorSpec,
    ScenarioFileError,
    document_to_report,
    load_scenario_file,
    lookup_scenario,
    parse_scenario_document,
    render_report_json,
    report_to_document,
    run_scenario,
)

TOL = 1e-12


def minimal_doc(**overrides):
    doc = {
        "name": "pair-check",
        "particles": 3,
        "pre": ["+", "+", "+"],
        "post": ["+i", "+i", "+i"],
        "queries": [
            {"type": "abl_amplitude",
             "projector": {"kind": "pair_same", "pair": [1, 2]},
             "claim": "vanishes"},
        ],
    }
    doc.update(overrides)
    return doc


def test_parse_minimal_document():
    scenario = parse_scenario_document(minimal_doc())
    assert scenario.name == "pair-check"
    assert scenario.n_particles == 3
    query = scenario.queries[0]
    assert type(query).__name__ == "AblAmplitudeQuery"
    assert query.projector == (ProjectorSpec.pair_same(1, 2, 3),)
    assert query.claim == "vanishes"
    report = run_scenario(scenario)
    assert report.records[0].results[0].value == 0j


def test_schema_violations_carry_a_path():
    with pytest.raises(ScenarioFileError, match=r"required"):
        parse_scenario_document({"name": "x"})
    with pytest.raises(ScenarioFileError, match=r"\$\.queries\[0\]"):
        parse_scenario_document(minimal_doc(queries=[{"type": "abl_amplitude"}]))
    with pytest.raises(ScenarioFileError, match=r"\$\.particles"):
        parse_scenario_document(minimal_doc(particles=0))
    with pytest.raises(ScenarioFileError, match=r"\$\.pre\[0\]"):
        parse_scenario_document(minimal_doc(pre=["sideways", "+", "+"]))


def test_semantic_violations_name_the_query():
    bad = minimal_doc(queries=[
        {"type": "abl_amplitude", "projector": {"kind": "pair_same", "pair": [1, 5]}}])
    with pytest.raises(ScenarioFileError, match=r"\$\.queries\[0\]: pair member 5 out of range"):
        parse_scenario_document(bad)
    unnormalized = minimal_doc(particles=2, pre=["+", "+"], post=["+", "+"], queries=[
        {"type": "predicate", "check": "eigenstate",
         "operators": [{"kind": "all_same"}],
         "state": {"amplitudes": [[1, 0], [0, 0], [0, 0], [1, 0]]},
         "eigenvalue": [1, 0]}])
    with pytest.raises(ScenarioFileError, match=r"\$\.queries\[0\]\.state: .*not normalized"):
        parse_scenario_document(unnormalized)


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(ScenarioFileError, match="cannot read scenario file"):
        load_scenario_file(str(tmp_path / "missing.json"))
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(ScenarioFileError, match="not valid JSON"):
        load_scenario_file(str(garbled))


def test_every_query_type_parses_and_runs(tmp_path):
    doc = {
        "name": "full-coverage",
        "particles": 3,
        "labels": "box",
        "description": "one of everything",
        "notes": ["written by the io test"],
        "pre": [{"cL": [1, 0], "cR": [1, 0]}, "+", "+"],
        "post": ["+i", "+i", "+i"],
        "queries": [
            {"type": "abl_amplitude", "projector": {"kind": "all_same"}},
            {"type": "weak_value",
             "projector": [{"kind": "box", "particle": 1, "box": "L"},
                           {"kind": "box", "particle": 2, "box": "L"}]},
            {"type": "abl_probabilities",
             "projectors": [{"kind": "pair_same", "pair": [1, 2]},
                            {"kind": "pair_diff", "pair": [1, 2]}]},
            {"type": "weak_value_sum",
             "projectors": [{"kind": "pair_same", "pair": [1, 2]},
                            {"kind": "pair_same", "pair": [2, 3]}]},
            {"type": "detailed_vs_global",
             "members": [[{"kind": "box", "particle": 1, "box": "L"},
                          {"kind": "box", "particle": 2, "box": "L"}],
                         [{"kind": "box", "particle": 1, "box": "R"},
                          {"kind": "box", "particle": 2, "box": "R"}]]},
            {"type": "transition_element",
             "hamiltonian": [{"coeff": [1, 0],
                              "projector": {"kind": "sd", "pair": [1, 2], "other": 3}},
                             {"projector": {"kind": "sd", "pair": [2, 3], "other": 1}},
                             {"projector": {"kind": "sd", "pair": [3, 1], "other": 2}}]},
            {"type": "predicate", "check": "is_projector",
             "operators": [{"kind": "all_same"}]},
            {"type": "predicate", "check": "orthogonal",
             "operators": [{"kind": "pair_same", "pair": [1, 2]},
                           {"terms": [{"projector": {"kind": "all_same"}}]}]},
            {"type": "predicate", "check": "resolution_of_identity",
             "operators": [{"kind": "pair_same", "pair": [1, 2]},
                           {"kind": "pair_diff", "pair": [1, 2]}]},
            {"type": "predicate", "check": "eigenstate",
             "operators": [{"kind": "all_same"}],
             "state": {"product": ["L", "L", "L"]},
             "eigenvalue": [1, 0]},
        ],
    }
    path = tmp_path / "full.json"
    path.write_text(json.dumps(doc))
    scenario = load_scenario_file(str(path))
    report = run_scenario(scenario)
    assert not report.has_errors()

    # the explicit cL/cR pair is the plus state, so this is the standard run
    by_name = {r.index: {v.name: v.value for v in r.results} for r in report.records}
    assert abs(by_name[0]["amplitude"] - (1 + 1j) / 8) <= TOL
    assert by_name[2]["probability[pair_same(1,2)]"] == 0.0
    assert abs(by_name[3]["weak_value_sum"]) <= TOL
    assert abs(by_name[4]["detailed"] - 1 / 16) <= TOL
    assert abs(by_name[5]["transition_element"] - (-3 * (1 + 1j) / 8)) <= TOL
    assert by_name[6]["is_projector"] is True
    assert by_name[7]["orthogonal"] is False
    assert by_name[8]["resolution_of_identity"] is True
    assert by_name[9]["is_eigenstate"] is True

    # cross-check the weak value of the boxed pair against the oracle
    o_pre = oracle.product_state(["+", "+", "+"])
    o_post = oracle.product_state(["+i", "+i", "+i"])
    cond = oracle.product_condition([ProjectorSpec.box_occupation(1, "L", 3),
                                     ProjectorSpec.box_occupation(2, "L", 3)])
    expected = (oracle.bracket(o_post, cond, o_pre, 3)
                / oracle.overlap(o_post, o_pre, 3))
    assert abs(by_name[1]["weak_value"] - expected) <= TOL


def test_report_documents_round_trip():
    report = run_scenario(lookup_scenario("pigeonhole3"))
    text = render_report_json(report)
    back = document_to_report(json.loads(text))
    assert back == report


def test_round_trip_keeps_error_records():
    report = run_scenario(lookup_scenario("detailed-vs-global"))
    back = document_to_report(json.loads(render_report_json(report)))
    assert back == report
    assert back.has_errors()


def test_rendered_json_is_deterministic():
    a = render_report_json(run_scenario(lookup_scenario("pigeonhole3")))
    b = render_report_json(run_scenario(lookup_scenario("pigeonhole3")))
    assert a == b


def test_complex_values_encode_with_magnitudes():
    report = run_scenario(lookup_scenario("pigeonhole3"))
    doc = report_to_document(report)
    amp = doc["queries"][4]["results"][0]
    assert amp["name"] == "amplitude"
    assert abs(amp["value"][0] - 0.125) <= TOL
    assert abs(amp["value"][1] - 0.125) <= TOL
    assert abs(amp["magnitude"] - math.sqrt(1 / 32)) <= TOL
    assert abs(amp["magnitude_squared"] - 1 / 32) <= TOL
    assert amp["vanishing"] is False
    verdict = doc["queries"][15]["results"][0]
    assert verdict == {"name": "resolution_of_identity", "value": True}


def test_unvalidated_semantic_errors_still_become_file_errors():
    # structurally valid but one state too few for the particle count
    doc = minimal_doc(pre=["+", "+"])
    with pytest.raises(ScenarioFileError, match="one state per particle"):
        parse_scenario_document(doc)

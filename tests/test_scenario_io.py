"""Scenario files in, report documents out."""

import copy
import json
import math
import os
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

import oracle
from twobox import (
    MAX_PARTICLES,
    SCENARIO_SCHEMA,
    InvalidArgumentError,
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
from twobox import scenario_io
from twobox.projectors import PROJECTOR_KINDS
from twobox.scenarios import Query, QueryRecord, ResultValue, ScenarioReport

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
    # a JSON integer is an int that is not a bool; 3.0 fails where it stands
    with pytest.raises(ScenarioFileError, match=r"^\$\.particles: 3\.0 is not of type 'integer'"):
        parse_scenario_document(minimal_doc(particles=3.0))
    with pytest.raises(ScenarioFileError, match=r"^\$\.particles: True is not of type"):
        parse_scenario_document(minimal_doc(particles=True))
    pair = [{"type": "abl_amplitude", "projector": {"kind": "pair_same", "pair": [1.0, 2]}}]
    with pytest.raises(ScenarioFileError,
                       match=r"^\$\.queries\[0\]\.projector\.pair\[0\]: 1\.0 is not of type"):
        parse_scenario_document(minimal_doc(queries=pair))
    # inside a oneOf the branch chosen by kind or type names the deepest offending part
    pair = [{"type": "abl_amplitude", "projector": {"kind": "sd", "pair": [1, "2"], "other": 3}}]
    with pytest.raises(ScenarioFileError, match=r"^\$\.queries\[0\]\.projector\.pair\[1\]: "):
        parse_scenario_document(minimal_doc(queries=pair))
    long_pair = [{"type": "weak_value", "projector": [{"kind": "pair_diff", "pair": [1, 2, 3]}]}]
    with pytest.raises(ScenarioFileError, match=r"^\$\.queries\[0\]\.projector\[0\]\.pair: "):
        parse_scenario_document(minimal_doc(queries=long_pair))
    with pytest.raises(ScenarioFileError, match=r"^\$\.queries\[0\]: .* not valid under any"):
        parse_scenario_document(minimal_doc(queries=[{"type": "no_such_query"}]))
    # a member, an operator and a state are objects (or a member a list of them)
    eigenstate = {"type": "predicate", "check": "eigenstate", "operators": [{"kind": "all_same"}],
                  "eigenvalue": [1, 0]}
    amplitudes = [[1, 0], 5] + [[0, 0]] * 6
    for query, path, message in [
            ({"type": "abl_amplitude", "projector": 5}, ".projector", "5 is not valid under any"),
            ({**eigenstate, "operators": [5]}, ".operators[0]", "5 is not valid under any"),
            ({**eigenstate, "state": 5}, ".state", "5 is not valid under any"),
            ({**eigenstate, "state": {"amplitudes": amplitudes}}, ".state.amplitudes[1]",
             "5 is not of type 'array'")]:
        pattern = "^" + re.escape(f"$.queries[0]{path}: {message}")
        with pytest.raises(ScenarioFileError, match=pattern):
            parse_scenario_document(minimal_doc(queries=[query]))
    with pytest.raises(ScenarioFileError, match=r"^\$: Additional properties .*'extra' unexpected"):
        parse_scenario_document(minimal_doc(extra=1))
    with pytest.raises(ScenarioFileError, match=r"^\$\.name: '' is too short"):
        parse_scenario_document(minimal_doc(name=""))
    with pytest.raises(ScenarioFileError,
                       match=rf"^\$\.particles: {MAX_PARTICLES + 1} is greater than the maximum"):
        parse_scenario_document(minimal_doc(particles=MAX_PARTICLES + 1))
    with pytest.raises(ScenarioFileError, match=r"^\$\.post: \[\] is too short"):
        parse_scenario_document(minimal_doc(post=[]))
    with pytest.raises(ScenarioFileError,
                       match=r"^\$\.pre\[0\]\.cL: \[1\] is too short \(minItems 2\)$"):
        parse_scenario_document(minimal_doc(pre=[{"cL": [1], "cR": [0, 1]}, "+", "+"]))


# one valid query document per query type, without its "type"
QUERY_EXAMPLES = {
    "abl_amplitude": {"projector": {"kind": "all_same"}},
    "weak_value": {"projector": [{"kind": "box", "particle": 1, "box": "L"}]},
    "abl_probabilities": {"projectors": [{"kind": "pair_same", "pair": [1, 2]}]},
    "weak_value_sum": {"projectors": [{"kind": "pair_diff", "pair": [1, 2]}]},
    "detailed_vs_global": {"members": [[{"kind": "sd", "pair": [1, 2], "other": 3}]]},
    "transition_element": {"hamiltonian": []},
    "predicate": {"check": "is_projector", "operators": [{"kind": "all_same"}]},
}


def test_the_schema_is_a_valid_draft_2020_12_schema():
    Draft202012Validator.check_schema(SCENARIO_SCHEMA)


def test_the_published_schema_does_not_drift():
    # the schema is built from the readers' tables at import; scenario_schema.json
    # holds its published text, key order included
    path = os.path.join(os.path.dirname(__file__), "scenario_schema.json")
    with open(path, encoding="utf-8") as handle:
        assert json.dumps(SCENARIO_SCHEMA) == json.dumps(json.load(handle))


def test_every_query_type_is_one_record_and_one_schema_branch():
    schema_tags = set()
    for branch in SCENARIO_SCHEMA["$defs"]["query"]["oneOf"]:
        rule = branch["properties"]["type"]
        schema_tags.update(rule.get("enum", [rule.get("const")]))
    records = typing.get_args(Query)
    assert schema_tags == {cls.tag for cls in records} == set(QUERY_EXAMPLES)
    assert len(records) == len(schema_tags)
    assert set(scenario_io._PROJECTOR_KEYS) == set(PROJECTOR_KINDS)
    for cls in records:
        # tag, kind and the key lists are class attributes, so repr and equality
        # see the fields only
        fields = set(cls.__match_args__)
        assert not {"tag", "kind", "keys", "optional_keys"} & fields
        # each document key the class names is read into one of its fields
        for key in (*cls.keys, *getattr(cls, "optional_keys", ()), "claim"):
            assert scenario_io._QUERY_FIELDS[key][0] in fields
        query = {"type": cls.tag, **QUERY_EXAMPLES[cls.tag]}
        scenario = parse_scenario_document(minimal_doc(queries=[query]))
        assert type(scenario.queries[0]) is cls
        assert run_scenario(scenario).records[0].query_type == cls.tag


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


@pytest.mark.parametrize("path", ["descriptor", b"scenario.json", None])
def test_load_scenario_file_takes_only_a_path(path):
    # open() would take an int as a file descriptor, read it and close it
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, json.dumps(minimal_doc()).encode())
        os.close(write_end)
        write_end = None
        with pytest.raises(InvalidArgumentError,
                           match=r"expected a file path \(str or os.PathLike\)"):
            load_scenario_file(read_end if path == "descriptor" else path)
        os.fstat(read_end)  # still the caller's to read and close
        assert json.loads(os.read(read_end, 4096)) == minimal_doc()
    finally:
        os.close(read_end)
        if write_end is not None:
            os.close(write_end)


def test_load_scenario_file_takes_a_path_object(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(minimal_doc()))
    assert load_scenario_file(path) == parse_scenario_document(minimal_doc())


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


@pytest.mark.parametrize("encode", [render_report_json, report_to_document])
def test_encoding_refuses_what_is_not_a_report(encode):
    for value in (3, None, report_to_document(run_scenario(lookup_scenario("pigeonhole3")))):
        with pytest.raises(InvalidArgumentError, match="^expected a ScenarioReport, got "):
            encode(value)


def test_decoding_names_the_first_missing_or_mistyped_key():
    doc = json.loads(render_report_json(run_scenario(lookup_scenario("detailed-vs-global"))))
    record = doc["queries"][0]
    complex_value, real_value = record["results"][0], record["results"][2]
    cases = [
        ({}, "$.scenario is missing or mistyped"),
        (3, "$.scenario is missing or mistyped"),
        ({**doc, "pre": "+"}, "$.pre is missing or mistyped"),
        ({**doc, "notes": ["a", 1]}, "$.notes holds a non-string"),
        ({key: doc[key] for key in doc if key != "tolerance"}, "$.tolerance is missing"),
        ({**doc, "n_particles": True}, "$.n_particles is missing or mistyped"),
        ({**doc, "queries": [record, []]}, "$.queries[1].index is missing or mistyped"),
        ({**doc, "queries": [{**record, "claim": 1}]}, "$.queries[0].claim is missing"),
        ({**doc, "queries": [{**record, "results": [{**complex_value, "value": [1.0]}]}]},
         "$.queries[0].results[0].value is mistyped"),
        ({**doc, "queries": [{**record, "results": [{"name": "x", "value": 0.5}]}]},
         "$.queries[0].results[0].vanishing is missing"),
        ({**doc, "queries": [{**record, "results": [{**real_value, "value": "0.5"}]}]},
         "$.queries[0].results[0].value is missing or mistyped"),
    ]
    for bad, message in cases:
        pattern = "^" + re.escape(f"report document: {message}")
        with pytest.raises(InvalidArgumentError, match=pattern):
            document_to_report(bad)
    assert report_to_document(document_to_report(doc)) == doc


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


# reports with every scalar json spells in its own way
TEXTS = st.text(st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "\u2028", "\ud800", "\udfff"])))
FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                    2.2250738585072014e-308, 1e308]), st.floats())
COMPLEXES = st.builds(complex, FLOATS, FLOATS)
VANISHING = st.sampled_from([None, True, False])
RESULT_VALUES = st.one_of(
    st.builds(ResultValue, TEXTS, st.booleans(), VANISHING),
    st.builds(ResultValue, TEXTS, COMPLEXES | COMPLEXES.map(np.complex128), VANISHING),
    st.builds(ResultValue, TEXTS, FLOATS | FLOATS.map(np.float64), VANISHING))
TEXT_TUPLES = st.lists(TEXTS, max_size=3).map(tuple)
RECORDS = st.builds(QueryRecord, index=st.integers(), query_type=TEXTS, kind=TEXTS,
                    target=TEXTS, claim=st.none() | TEXTS,
                    results=st.lists(RESULT_VALUES, max_size=3).map(tuple),
                    error=st.none() | TEXTS)
REPORTS = st.builds(ScenarioReport, scenario=TEXTS, description=TEXTS, labels=TEXTS,
                    n_particles=st.integers(), pre=TEXT_TUPLES, post=TEXT_TUPLES,
                    notes=TEXT_TUPLES, tolerance=st.integers() | FLOATS,
                    records=st.lists(RECORDS, max_size=3).map(tuple))


# numpy scalars warn when a squared magnitude overflows, on both routes alike
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(report=REPORTS)
def test_render_matches_the_json_module(report):
    expected = json.dumps(report_to_document(report), indent=2, sort_keys=True,
                          ensure_ascii=False)
    assert render_report_json(report) == expected


def test_unvalidated_semantic_errors_still_become_file_errors():
    # structurally valid but one state too few for the particle count
    doc = minimal_doc(pre=["+", "+"])
    with pytest.raises(ScenarioFileError, match="one state per particle"):
        parse_scenario_document(doc)


# generated documents ----------------------------------------------------------------

NAMED_STATES = ["L", "R", "+", "-", "+i", "-i", "plus", "minus", "plus_i", "minus_i"]
# .map(list) draws a new list each time, so no two fields of a document share one
COMPLEX = st.sampled_from([(1, 0), (0.5, -0.25), (0, 1.0), (-1, 2), (0.6, 0.1)]).map(list)
REFERENCE = Draft202012Validator(SCENARIO_SCHEMA)


@st.composite
def projectors(draw, n):
    kinds = ["box"] + ["pair_same", "pair_diff", "all_same"] * (n >= 2) + ["sd"] * (n >= 3)
    kind = draw(st.sampled_from(kinds))
    if kind == "box":
        return {"kind": "box", "particle": draw(st.integers(1, n)),
                "box": draw(st.sampled_from(["L", "R"]))}
    if kind == "all_same":
        return {"kind": "all_same"}
    order = draw(st.permutations(range(1, n + 1)))
    doc = {"kind": kind, "pair": list(order[:2])}
    if kind == "sd":
        doc["other"] = order[2]
    return doc


def members(n):
    return st.one_of(projectors(n), st.lists(projectors(n), max_size=2))


def terms(n, min_size=0):
    term = st.fixed_dictionaries({"projector": projectors(n)}, optional={"coeff": COMPLEX})
    return st.lists(term, min_size=min_size, max_size=2)


def states():
    return st.one_of(st.sampled_from(NAMED_STATES),
                     st.fixed_dictionaries({"cL": COMPLEX, "cR": COMPLEX}))


@st.composite
def predicates(draw, n):
    check = draw(st.sampled_from(["is_projector", "orthogonal", "resolution_of_identity",
                                  "eigenstate"]))
    opexpr = st.one_of(projectors(n), st.fixed_dictionaries({"terms": terms(n, 1)}))
    count = {"orthogonal": 2, "resolution_of_identity": draw(st.integers(1, 3))}.get(check, 1)
    doc = {"type": "predicate", "check": check,
           "operators": [draw(opexpr) for _ in range(count)]}
    if check == "eigenstate":
        if draw(st.booleans()):
            doc["state"] = {"product": draw(st.lists(states(), min_size=n, max_size=n))}
        else:
            basis = [[0, 0] for _ in range(2**n)]
            basis[draw(st.integers(0, 2**n - 1))] = [1, 0]
            doc["state"] = {"amplitudes": basis}
        doc["eigenvalue"] = draw(COMPLEX)
    return doc


@st.composite
def scenario_documents(draw):
    """A valid document asking each of the seven query types once, in random order."""
    n = draw(st.integers(1, 4))
    some = lambda: st.lists(members(n), min_size=1, max_size=3)
    queries = [
        {"type": "abl_amplitude", "projector": draw(members(n))},
        {"type": "weak_value", "projector": draw(members(n))},
        {"type": "abl_probabilities", "projectors": draw(some())},
        {"type": "weak_value_sum", "projectors": draw(some())},
        {"type": "detailed_vs_global", "members": draw(some())},
        {"type": "transition_element", "hamiltonian": draw(terms(n))},
        draw(predicates(n)),
    ]
    for query in queries:
        if draw(st.booleans()):
            query["claim"] = "a claim"
    doc = {"name": "generated", "particles": n,
           "pre": draw(st.lists(states(), min_size=n, max_size=n)),
           "post": draw(st.lists(states(), min_size=n, max_size=n)),
           "queries": draw(st.permutations(queries))}
    optional = {"labels": st.sampled_from(["box", "spin"]), "description": st.just("d"),
                "notes": st.lists(st.just("a note"), max_size=2)}
    for key, values in optional.items():
        if draw(st.booleans()):
            doc[key] = draw(values)
    return doc


def nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from nodes(item, (*path, index))


def untouched(doc, path):
    """The repr of each node of ``doc`` that is neither at ``path``, nor inside nor above it."""
    return {at: repr(value) for at, value in nodes(doc)
            if at[:len(path)] != path and path[:len(at)] != at}


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# the single-field mutations, each with the fields it applies to
MUTATIONS = {
    "type": lambda path, value: True,
    "remove": lambda path, value: bool(path) and isinstance(path[-1], str),
    "extra": lambda path, value: isinstance(value, dict),
    "range": lambda path, value: is_int(value) or isinstance(value, (str, list)),
    "long": lambda path, value: isinstance(value, list),
    "float": lambda path, value: is_int(value),
}


def mutated(doc, path, kind, data):
    """A copy of ``doc`` with the field at ``path`` mutated by ``kind``."""
    doc = copy.deepcopy(doc)
    if not path and kind == "type":
        return data.draw(st.sampled_from([[], "x", 3, None]))
    parent, key, value = None, None, doc
    for part in path:
        parent, key, value = value, part, value[part]
    if kind == "remove":
        del parent[key]
    elif kind == "extra":
        value["extra"] = 1
    elif kind == "long":
        value.append(copy.deepcopy(value[-1]) if value else 1)
    elif kind == "range":
        parent[key] = (value[:0] if not is_int(value)
                       else data.draw(st.sampled_from([0, -1, MAX_PARTICLES + 1, 2**40])))
    elif kind == "float":
        parent[key] = float(value)
    else:
        parent[key] = data.draw(st.sampled_from([1.5, "x", True, None, [], {}, 7]))
    return doc


def at_integer_position(path):
    return bool(path) and (path[-1] in ("particles", "particle", "other")
                           or (len(path) >= 2 and path[-2] == "pair"))


# the wording of the structural messages; semantic messages use none of these
SCHEMA_MESSAGE = re.compile(
    r"is not of type|is a required property|Additional properties are not allowed"
    r"|is too short|Expected at most|is (less|greater) than the m|is not one of"
    r"|is not valid under any")


def parse_error(doc):
    """The message parse_scenario_document refuses ``doc`` with, or None."""
    try:
        parse_scenario_document(doc)
    except ScenarioFileError as exc:
        return str(exc)
    return None


@settings(max_examples=120, deadline=None)
@given(doc=scenario_documents(), data=st.data())
def test_validator_agrees_with_the_reference_implementation(doc, data):
    assert REFERENCE.is_valid(doc) and parse_error(doc) is None
    kind = data.draw(st.sampled_from(sorted(MUTATIONS)))
    path = data.draw(st.sampled_from(
        [path for path, value in nodes(doc) if MUTATIONS[kind](path, value)]))
    original, doc = doc, mutated(doc, path, kind, data)
    # a single mutation changes the field at path and no other
    assert untouched(doc, path) == untouched(original, path)
    valid = REFERENCE.is_valid(doc)
    # the reference counts 3.0 as an integer; here it is refused where an integer belongs
    if kind == "float" and at_integer_position(path):
        valid = False
    message = parse_error(doc)
    if not valid:
        assert message is not None and message.startswith("$")
        assert SCHEMA_MESSAGE.search(message), message
    else:
        # a valid document may still ask something meaningless, such as particle 0
        assert message is None or not SCHEMA_MESSAGE.search(message), message


@settings(max_examples=40, deadline=None)
@given(doc=scenario_documents())
def test_generated_reports_round_trip(doc):
    report = run_scenario(parse_scenario_document(doc))
    assert document_to_report(report_to_document(report)) == report
    assert document_to_report(json.loads(render_report_json(report))) == report

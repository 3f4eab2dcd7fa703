"""The standing output corpus (``corpus.py``): every report and check output
keeps the bytes its digest in ``corpus.sha256`` records."""

import builtins
import random

import corpus
from twobox import DetailedVsGlobalQuery, ProjectorSpec, dense, engine, scenario_io, scenarios
from twobox.projectors import _LabelClasses


def test_every_corpus_output_keeps_its_recorded_digest():
    expected, actual = corpus.read_digests(), corpus.digests()
    changed = corpus.moved(expected, actual)
    assert not changed, (f"{len(changed)} of {len(actual)} outputs moved, first: {changed[:5]}; "
                         "`python tests/corpus.py --write` records the new ones")


def test_a_moved_output_is_named():
    expected = {"a": "1", "b": "2", "c": "3"}
    assert corpus.moved(expected, {"a": "1", "b": "9", "d": "4"}) == ["b", "d", "c"]


def test_a_moved_value_is_listed_by_its_path_with_its_relative_change():
    old = ('{"queries": [{"target": "all_same", '
           '"results": [{"name": "amplitude", "value": [0.5, 0.0]}]}]}')
    new = old.replace("0.5", "0.25")
    assert list(corpus.changes(old, new)) == [
        ("queries[0] all_same.results[0] amplitude.value[0]", 0.5, 0.25, "0.5")]
    check = ('exit {}\n--- stdout\n'
             '{{"operators": [{{"expression": "box(1,L)", "hermitian": {}}}]}}\n--- stderr\n')
    assert list(corpus.changes(check.format(0, "true"), check.format(1, 0))) == [
        ("exit", "exit 0", "exit 1", "-"),
        ("operators[0] box(1,L).hermitian", True, 0, "-")]
    assert list(corpus.changes('{"x": [NaN, 0.0]}', '{"x": [NaN, -0.0]}')) == [
        ("x[1]", 0.0, -0.0, "0")]
    assert list(corpus.changes("a\nb = 1\n", "a\nb = 2\nc\n")) == [
        ("line 2", "b = 1", "b = 2", "-"), ("line 3", None, "c", "-")]


def compensated_sum(values, start=0):
    """``sum`` as Python 3.12 and later add floats, with Neumaier's compensation;
    other values are added by the builtin."""
    values = list(values)
    if not values or not all(type(v) is float for v in values) or start != 0:
        return builtins.sum(values, start)
    total = compensation = 0.0
    for v in values:
        t = total + v
        compensation += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + compensation


def test_report_sums_do_not_depend_on_the_interpreter_version(monkeypatch):
    """Reports keep their digests when every ``sum`` of the run and dense layers
    compensates floats as the builtin does from Python 3.12: a compensated sum
    moves the normalizations of these documents."""
    runs = {f"file_doc {index} seed 0": scenario_io.parse_scenario_document(
        corpus.file_doc(index, random.Random(0))) for index in (9, 49)}
    for module in (engine, scenarios, dense):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    expected = corpus.read_digests()
    for key, scenario in runs.items():
        for output, text in corpus.report_outputs(key, scenario):
            assert corpus.digest(text) == expected[output], output
    # no corpus document moves a detailed probability, so these weights do: 1 + 2e-16
    classes = _LabelClasses([(1, 1e-8)] * 2)
    members = tuple((ProjectorSpec.box_occupation(1, a, 2), ProjectorSpec.box_occupation(2, b, 2))
                    for a in "LR" for b in "LR")
    assert dict(DetailedVsGlobalQuery(members).results(classes, 1e-12))["detailed"] == 1.0

"""The standing output corpus (``corpus.py``): every report and check output
keeps the bytes its digest in ``corpus.sha256`` records."""

import corpus


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

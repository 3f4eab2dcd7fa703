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

"""The library's frozen value types: value semantics, reprs, copies and pickling."""

import copy
import pickle
import struct

import pytest

from twobox import (
    BOX_LABELS,
    SPIN_LABELS,
    AblAmplitudeQuery,
    AblProbabilitiesQuery,
    DetailedVsGlobalQuery,
    ExplicitState,
    HamiltonianSpec,
    InvalidAmplitudesError,
    Ket,
    Operator,
    PrePostSelection,
    PredicateQuery,
    ProductState,
    ProjectorSpec,
    Scenario,
    TransitionElementQuery,
    UnnormalizedKet,
    WeakValueQuery,
    WeakValueSumQuery,
    render_report_json,
    run_scenario,
)
from twobox.engine import AblResult, MeasurementSet
from twobox.hilbert import LabelScheme, _Record
from twobox.scenarios import (QueryRecord, ResultValue, ScenarioReport, builtin_scenarios,
                              lookup_scenario)

BOX = "ProjectorSpec(kind='box', n_particles=2, particle=1, box='L', pair=None, other=None)"
SAME = "ProjectorSpec(kind='pair_same', n_particles=2, particle=None, box=None, pair=(1, 2), other=None)"
HAM = f"HamiltonianSpec(terms=(((0.5+0j), {BOX}), (1j, {SAME})), n_particles=2)"
VALUE = "ResultValue(name='amplitude', value=0.5j, vanishing=False)"
RECORD = ("QueryRecord(index=0, query_type='abl_amplitude', kind='presence', target='box(1,L)', "
          f"claim=None, results=({VALUE},), error=None)")


def _cases():
    """(instance, the repr the same value had as a frozen dataclass), one per record type.

    The private bases ``_OneProduct`` and ``_ProductSet`` are covered by their
    four query classes, whose reprs name the subclass.
    """
    box = ProjectorSpec("box", 2, particle=1, box="L")
    ham = HamiltonianSpec(((0.5, box), (1j, ProjectorSpec("pair_same", 2, pair=(2, 1)))), 2)
    value = ResultValue("amplitude", 0.5j, False)
    record = QueryRecord(0, "abl_amplitude", "presence", "box(1,L)", None, (value,), None)
    return [
        (BOX_LABELS, "LabelScheme(name='box', letters=('L', 'R'))"),
        (ProjectorSpec("sd", 3, pair=(2, 1), other=3),
         "ProjectorSpec(kind='sd', n_particles=3, particle=None, box=None, pair=(1, 2), other=3)"),
        (ham, HAM),
        (PrePostSelection(Ket([1, 0]), Ket([0, 1])),
         "PrePostSelection(pre=Ket((1+0j)|L>), post=Ket((1+0j)|R>))"),
        (AblResult((0.5 + 0j,), (1.0,), 0.25),
         "AblResult(amplitudes=((0.5+0j),), probabilities=(1.0,), normalization=0.25)"),
        (ProductState(("plus", (1, 1j))), "ProductState(factors=('plus', (1, 1j)))"),
        (ExplicitState((0.6, 0.8j)), "ExplicitState(amplitudes=(0.6, 0.8j))"),
        (AblAmplitudeQuery((box,)), f"AblAmplitudeQuery(projector=({BOX},), claim=None)"),
        (WeakValueQuery((box,), "claimed"),
         f"WeakValueQuery(projector=({BOX},), claim='claimed')"),
        (AblProbabilitiesQuery(((box,), ())),
         f"AblProbabilitiesQuery(projectors=(({BOX},), ()), claim=None)"),
        (WeakValueSumQuery(((box,),)), f"WeakValueSumQuery(projectors=(({BOX},),), claim=None)"),
        (DetailedVsGlobalQuery(((box,), (box, box))),
         f"DetailedVsGlobalQuery(members=(({BOX},), ({BOX}, {BOX})), claim=None)"),
        (TransitionElementQuery(ham), f"TransitionElementQuery(hamiltonian={HAM}, claim=None)"),
        (PredicateQuery("eigenstate", (ham,), ProductState(("L", "R")), 1),
         f"PredicateQuery(check='eigenstate', operands=({HAM},), "
         "state=ProductState(factors=('L', 'R')), eigenvalue=1, claim=None)"),
        (Scenario("s", 2, ("plus", "L"), ("minus_i", "R"), (AblAmplitudeQuery((box,)),),
                  notes=("n",)),
         "Scenario(name='s', n_particles=2, pre=('plus', 'L'), post=('minus_i', 'R'), "
         f"queries=(AblAmplitudeQuery(projector=({BOX},), claim=None),), description='', "
         "notes=('n',), labels='box')"),
        (value, VALUE),
        (record, RECORD),
        (ScenarioReport("s", "", "box", 2, ("+", "L"), ("-i", "R"), (), 1e-12, (record,)),
         "ScenarioReport(scenario='s', description='', labels='box', n_particles=2, "
         f"pre=('+', 'L'), post=('-i', 'R'), notes=(), tolerance=1e-12, records=({RECORD},))"),
    ]


CASES = _cases()
IDS = [type(record).__name__ for record, _ in CASES]


def _fields(record):
    return tuple(getattr(record, name) for name in type(record).__match_args__)


@pytest.mark.parametrize("record, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", CASES, ids=IDS)
def test_records_compare_and_hash_by_value(record, text):
    twin = type(record)(*_fields(record))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    if type(record) is not LabelScheme:  # whose hash leaves out its named states
        assert hash(record) == hash(_fields(record))
    # the fields are the instance's whole state, in the declared order
    assert tuple(vars(record)) == type(record).__match_args__
    # a record of another class never equals it, even with equal fields
    other = next(r for r, _ in CASES if type(r) is not type(record))
    assert record != other and record != _fields(record)


def test_a_different_query_class_with_the_same_fields_is_unequal():
    box = ProjectorSpec("box", 2, particle=1, box="L")
    assert AblAmplitudeQuery((box,)) != WeakValueQuery((box,))
    assert AblProbabilitiesQuery(((box,),)) != WeakValueSumQuery(((box,),))
    assert AblAmplitudeQuery((box,)) != AblAmplitudeQuery((box,), "a claim")


@pytest.mark.parametrize("record, text", CASES, ids=IDS)
def test_records_refuse_assignment_and_deletion(record, text):
    for name in (*type(record).__match_args__, "not_a_field"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, name)
    assert repr(record) == text


def test_match_args_keep_the_field_order():
    expected = {
        "LabelScheme": ("name", "letters", "named_states"),
        "ProjectorSpec": ("kind", "n_particles", "particle", "box", "pair", "other"),
        "HamiltonianSpec": ("terms", "n_particles"),
        "PrePostSelection": ("pre", "post"),
        "AblResult": ("amplitudes", "probabilities", "normalization"),
        "ProductState": ("factors",),
        "ExplicitState": ("amplitudes",),
        "AblAmplitudeQuery": ("projector", "claim"),
        "WeakValueQuery": ("projector", "claim"),
        "AblProbabilitiesQuery": ("projectors", "claim"),
        "WeakValueSumQuery": ("projectors", "claim"),
        "DetailedVsGlobalQuery": ("members", "claim"),
        "TransitionElementQuery": ("hamiltonian", "claim"),
        "PredicateQuery": ("check", "operands", "state", "eigenvalue", "claim"),
        "Scenario": ("name", "n_particles", "pre", "post", "queries", "description", "notes",
                     "labels"),
        "ResultValue": ("name", "value", "vanishing"),
        "QueryRecord": ("index", "query_type", "kind", "target", "claim", "results", "error"),
        "ScenarioReport": ("scenario", "description", "labels", "n_particles", "pre", "post",
                           "notes", "tolerance", "records"),
    }
    assert {type(r).__name__: type(r).__match_args__ for r, _ in CASES} == expected
    match ProjectorSpec("sd", 3, pair=(2, 1), other=3):
        case ProjectorSpec(kind, n, particle, box, pair, other):
            assert (kind, n, particle, box, pair, other) == ("sd", 3, None, None, (1, 2), 3)


@pytest.mark.parametrize("record, text", CASES, ids=IDS)
def test_a_pickle_round_trip_returns_an_equal_record(record, text):
    copied = pickle.loads(pickle.dumps(record))
    assert type(copied) is type(record) and repr(copied) == text
    if type(record) is PrePostSelection:  # whose Kets compare by identity
        for name in ("pre", "post"):
            state, twin = getattr(record, name), getattr(copied, name)
            assert type(twin) is Ket and twin is not state
            assert twin.amplitudes.tolist() == state.amplitudes.tolist()
    else:
        assert copied == record


def _records_in(value):
    """Every record in ``value``, itself included, through tuples and fields."""
    if isinstance(value, _Record):
        yield value
        value = tuple(vars(value).values())
    if isinstance(value, tuple):
        for item in value:
            yield from _records_in(item)


def test_a_record_hashes_as_its_field_tuple():
    # every record a builtin scenario and its report hold, at every depth
    records = [r for s in builtin_scenarios() for r in _records_in((s, run_scenario(s)))]
    assert {type(r).__name__ for r in records} >= {
        "Scenario", "ScenarioReport", "QueryRecord", "ResultValue", "ProjectorSpec",
        "HamiltonianSpec", "PredicateQuery", "TransitionElementQuery"}
    for record in records:
        assert hash(record) == hash(tuple(getattr(record, f) for f in record.__match_args__))


def _values():
    return [
        Ket([0.6, 0.8j], SPIN_LABELS),
        UnnormalizedKet([2, 0, 0, 1j]),
        Operator.from_diagonal([1, 0, 0.5j, 0], SPIN_LABELS),
        Operator([[1, 2j], [3, 4]]),
        MeasurementSet([Operator.from_diagonal([1, 0]), Operator([[0, 0], [0, 1]])], ["a", "b"]),
    ]


def _stored(value):
    """A value's type, labels and stored numbers, in their storage form."""
    if isinstance(value, MeasurementSet):
        return type(value), value.labels, [_stored(op) for op in value]
    data = value.amplitudes if isinstance(value, (Ket, UnnormalizedKet)) else value._data
    return type(value), value.labels, data.ndim, data.tolist()


@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy,
                                 lambda value: pickle.loads(pickle.dumps(value))],
                         ids=["copy", "deepcopy", "pickle"])
def test_states_operators_and_measurement_sets_copy_and_pickle(how):
    for value in _values():
        twin = how(value)
        assert twin is not value and _stored(twin) == _stored(value)
    # a PrePostSelection of them goes the same way
    selection = how(PrePostSelection(Ket([1, 0]), Ket([0.6, 0.8])))
    assert selection.post.amplitudes.tolist() == [0.6, 0.8]


def test_an_unpickled_value_is_checked_again():
    # the same pickle with one amplitude or entry changed is refused as the constructor refuses it
    for value, old, new, message in [
            (Ket([0.6, 0.8]), 0.6, 0.7, "not normalized"),
            (Operator.from_diagonal([1, 0.5]), 0.5, float("nan"), "diagonal must be finite"),
            (Operator([[1, 0.5], [0, 1]]), 0.5, float("inf"), "entries must be finite")]:
        data = pickle.dumps(value)
        forged = data.replace(struct.pack("<d", old), struct.pack("<d", new))
        assert forged != data
        with pytest.raises(InvalidAmplitudesError, match=message):
            pickle.loads(forged)


def label_copy(scheme):
    return LabelScheme(scheme.name, scheme.letters, dict(scheme.named_states))


def test_label_schemes_hash_and_keep_their_named_states_read_only():
    assert hash(BOX_LABELS) == hash(LabelScheme("box", ("L", "R"), {}))
    assert len({BOX_LABELS, SPIN_LABELS, label_copy(BOX_LABELS)}) == 2
    # equality still reads the named states
    assert BOX_LABELS == label_copy(BOX_LABELS)
    assert BOX_LABELS != LabelScheme("box", ("L", "R"), {})
    with pytest.raises(TypeError):
        BOX_LABELS.named_states["plus"] = "oops"
    with pytest.raises(TypeError):
        del SPIN_LABELS.named_states["plus"]
    # the caller's mapping is copied, so changing it later changes no scheme
    names = dict(BOX_LABELS.named_states)
    scheme = LabelScheme("box", ("L", "R"), names)
    names["plus"] = "oops"
    assert scheme.state_display("plus") == "+"
    report = run_scenario(lookup_scenario("pigeonhole3"))
    assert report.pre == ("+", "+", "+") and report.post == ("+i", "+i", "+i")
    assert '"+"' in render_report_json(report)

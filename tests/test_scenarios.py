"""Builtin scenarios and the report machinery."""

import json
import time
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

import corpus
import oracle
from twobox import (
    MAX_PARTICLES,
    AblAmplitudeQuery,
    AblProbabilitiesQuery,
    DetailedVsGlobalQuery,
    ExplicitState,
    HamiltonianSpec,
    IllegitimateQuestionError,
    InvalidArgumentError,
    Ket,
    MeasurementSet,
    Operator,
    PrePostSelection,
    PredicateQuery,
    ProductState,
    ProjectorSpec,
    Scenario,
    ScenarioNotFoundError,
    TransitionElementQuery,
    TwoBoxError,
    UnnormalizedKet,
    WeakValueQuery,
    WeakValueSumQuery,
    abl_amplitude,
    abl_probabilities,
    apply,
    are_orthogonal,
    basis_state,
    build_hamiltonian,
    build_projector,
    builtin_scenarios,
    canonical_state_name,
    detailed_probability,
    global_probability,
    idempotency_defect,
    inner,
    is_eigenstate,
    is_hermitian,
    is_projector,
    is_resolution_of_identity,
    label_scheme,
    lookup_scenario,
    make_single_particle_state,
    relabel_to_spin,
    run_scenario,
    tensor,
    transition_element,
    vanishes,
    weak_value,
    weak_value_sum,
)
from twobox.hilbert import _single_pair, eigenstate_residual
from twobox.scenario_io import render_report_json, report_to_document
from twobox.projectors import _LabelClasses

TOL = 1e-12

BUILTIN_NAMES = ["pigeonhole3", "transition", "detailed-vs-global",
                 "coherent-enhancement", "spin-relabel", "eigenspace-degeneracy"]


def values(record):
    """name -> value for one record."""
    return {v.name: v.value for v in record.results}


def test_builtin_listing_is_stable():
    assert [s.name for s in builtin_scenarios()] == BUILTIN_NAMES
    assert all(s.description for s in builtin_scenarios())


def test_lookup():
    assert lookup_scenario("transition").name == "transition"
    with pytest.raises(ScenarioNotFoundError, match="unknown scenario 'nope'"):
        lookup_scenario("nope")
    with pytest.raises(ScenarioNotFoundError, match="pigeonhole3"):
        lookup_scenario("nope")  # the message lists what exists


def test_builtins_are_built_once_and_handed_out_in_new_lists():
    assert lookup_scenario("pigeonhole3") == lookup_scenario("pigeonhole3")
    listed = builtin_scenarios()
    listed.clear()
    listed.append(lookup_scenario("transition"))
    assert [s.name for s in builtin_scenarios()] == BUILTIN_NAMES
    assert builtin_scenarios() is not builtin_scenarios()
    with pytest.raises(ScenarioNotFoundError) as caught:
        lookup_scenario("nope")
    known = ", ".join(BUILTIN_NAMES)
    assert str(caught.value) == f"unknown scenario 'nope'; builtins are: {known}"
    with pytest.raises(ScenarioNotFoundError, match=r"unknown scenario \['pigeonhole3'\]"):
        lookup_scenario(["pigeonhole3"])


def test_pigeonhole_report_values():
    report = run_scenario(lookup_scenario("pigeonhole3"))
    assert not report.has_errors()
    assert report.pre == ("+", "+", "+")
    assert report.post == ("+i", "+i", "+i")
    assert len(report.records) == 16
    recs = report.records

    # three vanishing pair amplitudes
    for k, target in [(0, "pair_same(1,2)"), (1, "pair_same(2,3)"), (2, "pair_same(1,3)")]:
        assert recs[k].target == target
        amp = recs[k].results[0]
        assert amp.name == "amplitude"
        assert amp.value == 0j
        assert amp.vanishing is True

    pair = values(recs[3])
    assert pair["probability[pair_same(1,2)]"] == 0.0
    assert pair["probability[pair_diff(1,2)]"] == 1.0
    assert abs(pair["normalization"] - 1 / 8) <= TOL

    assert abs(values(recs[4])["amplitude"] - (1 + 1j) / 8) <= TOL
    assert abs(values(recs[5])["amplitude"] + (1 + 1j) / 8) <= TOL

    refined = values(recs[6])
    for name, value in refined.items():
        if name.startswith("probability["):
            assert abs(value - 0.25) <= TOL

    assert abs(values(recs[7])["weak_value"]) <= TOL
    assert abs(values(recs[8])["weak_value"] - 1) <= TOL
    assert abs(values(recs[9])["weak_value"] + 0.5) <= TOL
    assert abs(values(recs[10])["weak_value"] - 0.5) <= TOL

    wsum = values(recs[11])
    assert abs(wsum["weak_value_sum"]) <= TOL

    projector_check = values(recs[12])
    assert projector_check["is_projector"] is False
    assert projector_check["hermitian"] is True
    assert projector_check["idempotency_defect"] == 2.0

    assert values(recs[13])["orthogonal"] is True
    assert values(recs[14])["orthogonal"] is False
    assert values(recs[15])["resolution_of_identity"] is True


def test_pigeonhole_amplitudes_match_the_oracle():
    report = run_scenario(lookup_scenario("pigeonhole3"))
    o_pre = oracle.product_state(["+", "+", "+"])
    o_post = oracle.product_state(["+i", "+i", "+i"])
    checks = [
        (0, ProjectorSpec.pair_same(1, 2, 3)),
        (1, ProjectorSpec.pair_same(2, 3, 3)),
        (2, ProjectorSpec.pair_same(1, 3, 3)),
        (4, ProjectorSpec.all_same(3)),
        (5, ProjectorSpec.sd(1, 2, 3, 3)),
    ]
    for index, spec in checks:
        mine = values(report.records[index])["amplitude"]
        ref = oracle.bracket(o_post, oracle.condition(spec), o_pre, 3)
        assert abs(mine - ref) <= TOL


def refined_outcomes(n):
    """Each split {A | B} of n particles between the two boxes, particle 1 in A,
    with its product of pair specs: pair_same(1,k) for k in A, pair_diff(1,k)
    for k in B."""
    for bits in range(2 ** (n - 1)):
        b = tuple(k for k in range(2, n + 1) if bits >> (k - 2) & 1)
        a = tuple(k for k in range(1, n + 1) if k not in b)
        yield a, b, tuple(ProjectorSpec.pair_diff(1, k, n) if k in b
                          else ProjectorSpec.pair_same(1, k, n) for k in range(2, n + 1))


@pytest.mark.parametrize("n", range(3, 11))
def test_the_refined_measurement_puts_some_pair_in_one_box_though_no_pair_shares_one(n):
    outcomes = list(refined_outcomes(n))
    products = tuple(product for _, _, product in outcomes)
    pairs = [ProjectorSpec.pair_same(i, j, n) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    # the pair each outcome puts in one box, asked together with the outcome
    shared = [ProjectorSpec.pair_same(*(a[:2] if len(a) >= 2 else b[:2]), n) for a, b, _ in outcomes]
    queries = (AblProbabilitiesQuery(products), WeakValueSumQuery(tuple((p,) for p in pairs)),
               *(AblAmplitudeQuery((pair,)) for pair in pairs),
               *(AblAmplitudeQuery(product + (pair,)) for product, pair in zip(products, shared)))
    report = run_scenario(Scenario("refined", n, ("+",) * n, ("+i",) * n, queries))
    assert not report.has_errors()
    refined, pair_count, *records = report.records
    pair_records, shared_records = records[:len(pairs)], records[len(pairs):]
    amplitudes = [r.value for r in refined.results[0:-1:2]]
    probabilities = [r.value for r in refined.results[1:-1:2]]

    for (a, b, _), amplitude in zip(outcomes, amplitudes, strict=True):
        assert abs(amplitude - ((-1j) ** len(a) + (-1j) ** len(b)) / 2**n) <= TOL
    kept = [r.vanishing is False for r in refined.results[0:-1:2]]
    assert sum(kept) == 2 ** (2 * ((n - 1) // 2))
    for keep, probability in zip(kept, probabilities):
        assert abs(probability - (1 / sum(kept) if keep else 0)) <= TOL

    # no pair question finds a pair in one box, yet every outcome holds only
    # where its pair is in one box: asked together, the amplitude is the same
    for record in pair_records:
        assert values(record)["amplitude"] == 0j and record.results[0].vanishing is True
    assert values(pair_count)["weak_value_sum"] == 0j  # the weak value of the pair count
    for amplitude, record in zip(amplitudes, shared_records, strict=True):
        assert values(record)["amplitude"] == amplitude

    if n == 3:  # the same operators as pigeonhole3's refined set
        pigeonhole = values(run_scenario(lookup_scenario("pigeonhole3")).records[6])
        sd_of = {(1, 2, 3): "all_same", (1, 2): "sd(1,2;3)", (1, 3): "sd(1,3;2)", (1,): "sd(2,3;1)"}
        for (a, _, _), probability in zip(outcomes, probabilities):
            assert probability == pigeonhole[f"probability[{sd_of[a]}]"]
    if n <= 8:
        built = [reduce(Operator.__matmul__, map(build_projector, p)) for p in products]
        assert is_resolution_of_identity(built)
    if n <= 6:
        o_pre, o_post = oracle.product_state(["+"] * n), oracle.product_state(["+i"] * n)
        for product, amplitude in zip(products, amplitudes):
            expected = oracle.bracket(o_post, oracle.product_condition(product), o_pre, n)
            assert abs(amplitude - expected) <= TOL


def test_every_record_carries_a_claim():
    report = run_scenario(lookup_scenario("pigeonhole3"))
    assert all(r.claim for r in report.records)
    kinds = {r.query_type: r.kind for r in report.records}
    assert kinds["abl_amplitude"] == "presence"
    assert kinds["weak_value"] == "presence"
    assert kinds["predicate"] == "predicate"


def test_reports_are_deterministic():
    a = run_scenario(lookup_scenario("pigeonhole3"))
    b = run_scenario(lookup_scenario("pigeonhole3"))
    assert a == b


def test_transition_scenario():
    report = run_scenario(lookup_scenario("transition"))
    assert not report.has_errors()
    first = values(report.records[0])["transition_element"]
    second = values(report.records[1])["transition_element"]
    assert abs(first) <= TOL
    assert report.records[0].results[0].vanishing is True
    assert abs(second - (-3 * (1 + 1j) / 8)) <= TOL
    assert report.records[0].kind == "transition"
    assert report.records[0].target == "pair_same(1,2) + pair_same(2,3) + pair_same(1,3)"


def test_detailed_vs_global_scenario_records_one_error():
    report = run_scenario(lookup_scenario("detailed-vs-global"))
    assert report.has_errors()
    ok, broken = report.records
    assert ok.error is None
    assert abs(values(ok)["detailed"] - 1 / 16) <= TOL
    assert values(ok)["global"] == 0.0
    assert broken.error == "not a legitimate question"
    # the member-by-member half still computed before the question collapsed
    assert values(broken)["detailed"] == 0.0
    assert "global" not in values(broken)


def test_coherent_enhancement_scenario():
    report = run_scenario(lookup_scenario("coherent-enhancement"))
    record = values(report.records[0])
    assert abs(record["detailed"] - 1 / 8) <= TOL
    assert abs(record["global"] - 1 / 4) <= TOL


def test_spin_relabel_matches_the_box_run_exactly():
    box = run_scenario(lookup_scenario("pigeonhole3"))
    spin = run_scenario(lookup_scenario("spin-relabel"))
    assert spin.labels == "spin"
    assert spin.pre == ("x,+", "x,+", "x,+")
    assert spin.post == ("y,+", "y,+", "y,+")
    # same queries, same targets, bit-identical numbers
    assert spin.records == box.records


def test_eigenspace_degeneracy_scenario():
    report = run_scenario(lookup_scenario("eigenspace-degeneracy"))
    verdicts = [values(r)["is_eigenstate"] for r in report.records]
    assert verdicts == [True, True, True, False]
    residuals = [values(r)["residual_norm"] for r in report.records]
    assert residuals[0] == 0.0
    assert residuals[1] == 0.0
    assert residuals[2] <= TOL
    assert abs(residuals[3] - 1.0) <= TOL
    assert report.records[0].target == "pair_same(1,2) on |L,L> with eigenvalue 1"
    assert "[0.707107, 0, 0, 0.707107]" in report.records[2].target


def test_scenario_validation():
    box = (ProjectorSpec.box_occupation(1, "L", 1),)
    with pytest.raises(ValueError, match="one state per particle"):
        Scenario("x", 2, ("+",), ("+", "+"), ())
    with pytest.raises(ValueError, match="targets 1 particles"):
        Scenario("x", 2, ("+", "+"), ("+", "+"),
                 (WeakValueQuery(box),))
    with pytest.raises(ValueError, match="unknown label scheme"):
        Scenario("x", 1, ("+",), ("+",), (), labels="octarine")
    with pytest.raises(ValueError, match="needs a name"):
        Scenario("", 1, ("+",), ("+",), ())
    with pytest.raises(ValueError, match="unknown state name"):
        Scenario("x", 1, ("up",), ("+",), ())


ONE_PARTICLE = PrePostSelection(make_single_particle_state("+"), make_single_particle_state("L"))


def eigenstate_query(state):
    return PredicateQuery("eigenstate", (HamiltonianSpec.of([(1, ProjectorSpec.all_same(2))]),),
                          state=state, eigenvalue=1)


@pytest.mark.parametrize("build, message", [
    (lambda: ProjectorSpec.pair_same(1, 5, 3), "pair member 5 out of range 1..3"),
    (lambda: ProjectorSpec.pair_same(1.5, 2, 3), "pair member must be an integer, got 1.5"),
    # a spec sets only the fields its kind names
    (lambda: ProjectorSpec("pair_same", 3, pair=(1, 2), other=5), "^pair_same takes no other$"),
    (lambda: ProjectorSpec("box", 3, particle=1, box="L", pair=(1, 9)), "^box takes no pair$"),
    (lambda: ProjectorSpec("all_same", 3, particle="x"), "^all_same takes no particle$"),
    (lambda: Scenario("x", 1, ("+",), ("+",), (), labels="polar"), "unknown label scheme"),
    (lambda: Scenario("x", 2, ("+", "+"), ("+", "+"), (PredicateQuery(
        "eigenstate", (HamiltonianSpec.of([(1, ProjectorSpec.all_same(2))]),),
        state=ExplicitState((1, 0, 0)), eigenvalue=1),)),
     "explicit state length must be a power of two"),
    (lambda: Scenario("x", 1, ("+",), ("+",), ("pair_same(1,2)",)), "unknown query type str"),
    (lambda: relabel_to_spin(3), "cannot relabel int"),
    (lambda: eigenstate_residual(Operator.identity(1), UnnormalizedKet([2.0, 0.0]), 1),
     "expects a normalized Ket"),
    (lambda: Ket(["a", "b"]), "amplitudes must be an array of numbers"),
    (lambda: HamiltonianSpec.of([("abc", ProjectorSpec.all_same(2))]),
     "coefficient must be a number, got .abc."),
    (lambda: Scenario("x", 1, (("a", "b"),), ("+",), ()),
     "a state coefficient must be a number, got 'a'"),
    (lambda: Scenario("x", 1, (5,), ("+",), ()), "needs exactly two coefficients"),
    (lambda: PredicateQuery("eigenstate", (HamiltonianSpec.of([(1, ProjectorSpec.all_same(2))]),),
                            state=ProductState(("L", "L")), eigenvalue=[1, 2]),
     r"eigenvalue must be a number, got \[1, 2\]"),

    # an argument of the wrong kind is refused where it enters, whatever it is
    (lambda: is_projector(np.eye(2)), "expected an Operator, got ndarray"),
    (lambda: is_hermitian(np.eye(2)), "expected an Operator, got ndarray"),
    (lambda: idempotency_defect(np.eye(2)), "expected an Operator, got ndarray"),
    (lambda: are_orthogonal(Operator.identity(1), np.eye(2)), "expected an Operator, got ndarray"),
    (lambda: is_resolution_of_identity([Operator.identity(1), np.eye(2)]),
     "expected an Operator, got ndarray"),
    (lambda: is_resolution_of_identity(5), "expected an iterable of Operators, got int"),
    (lambda: build_projector("x"), "expected a ProjectorSpec, got str"),
    (lambda: build_hamiltonian("x"), "expected a HamiltonianSpec, got str"),
    (lambda: tensor(["x"]), r"expected a state \(Ket or UnnormalizedKet\), got str"),
    (lambda: tensor(5), "expected a sequence of states, got int"),
    (lambda: inner(1, 2), "expected a state .*, got int"),
    (lambda: apply(1, 2), "expected an Operator, got int"),
    (lambda: apply(Operator.identity(1), [1, 0]), "expected a state .*, got list"),
    (lambda: run_scenario(1), "expected a Scenario, got int"),
    (lambda: PrePostSelection(1, 2), r"expected a state \(Ket or UnnormalizedKet\), got int"),
    (lambda: abl_amplitude(1, Operator.identity(1)), "expected a PrePostSelection, got int"),
    (lambda: abl_amplitude(ONE_PARTICLE, 1), "expected an Operator, got int"),
    (lambda: transition_element(ONE_PARTICLE, 1), "expected an Operator, got int"),
    (lambda: abl_amplitude(ONE_PARTICLE, Operator.identity(2)),
     "operator dimension 4 does not match the selection dimension 2"),
    (lambda: abl_probabilities(ONE_PARTICLE, MeasurementSet([Operator.identity(2)])),
     "measurement dimension 4 does not match the selection dimension 2"),
    (lambda: transition_element(ONE_PARTICLE, Operator.identity(2)),
     "operator dimension 4 does not match the selection dimension 2"),
    (lambda: weak_value(1, Operator.identity(1)), "expected a PrePostSelection, got int"),
    (lambda: MeasurementSet([1]), "expected an Operator, got int"),
    (lambda: MeasurementSet(5), "expected an iterable of Operators, got int"),
    (lambda: MeasurementSet([Operator.identity(1)], labels=5),
     "expected an iterable of labels, got int"),
    (lambda: abl_probabilities(ONE_PARTICLE, [Operator.identity(1)]),
     "expected a MeasurementSet, got list"),
    (lambda: weak_value_sum(ONE_PARTICLE, 5), "expected an iterable of Operators, got int"),
    (lambda: weak_value_sum(1, []), "expected a PrePostSelection, got int"),
    (lambda: detailed_probability(ONE_PARTICLE, 5), "expected an iterable of Operators, got int"),
    (lambda: global_probability(ONE_PARTICLE, [1]), "expected an Operator, got int"),
    (lambda: make_single_particle_state(5), "needs exactly two coefficients"),
    (lambda: make_single_particle_state(("a", 1)), "a state coefficient must be a number"),
    (lambda: HamiltonianSpec.of(5), r"expected an iterable of \(coefficient, ProjectorSpec\) terms"),
    (lambda: HamiltonianSpec.of([(1, 5)]), "expected a ProjectorSpec, got int"),
    (lambda: HamiltonianSpec.of([5]), r"a term must be a \(coefficient, ProjectorSpec\) pair"),
    (lambda: Scenario("x", 1, ("+",), ("+",), (AblAmplitudeQuery((5,)),)),
     "expected a ProjectorSpec, got int"),
    (lambda: Scenario("x", 1, ("+",), ("+",), (WeakValueSumQuery(5),)),
     "expected an iterable of projector products, got int"),
    (lambda: Scenario("x", 1, ("+",), ("+",), (DetailedVsGlobalQuery((5,)),)),
     "expected a projector product, got int"),
    (lambda: Scenario("x", 1, ("+",), ("+",), (TransitionElementQuery(5),)),
     "expected a HamiltonianSpec, got int"),
    (lambda: PredicateQuery("is_projector", (5,)), "expected a HamiltonianSpec, got int"),
    (lambda: PredicateQuery("eigenstate", (HamiltonianSpec.of([(1, ProjectorSpec.all_same(2))]),),
                            state="LL", eigenvalue=1),
     "expected a ProductState or ExplicitState, got str"),
    (lambda: Scenario("x", 2, ("+", "+"), ("+", "+"), (eigenstate_query(ProductState(5)),)),
     "expected a collection of state specs, got int"),
    (lambda: Scenario("x", 2, ("+", "+"), ("+", "+"), (eigenstate_query(ProductState((5, "L"))),)),
     "needs exactly two coefficients"),
    (lambda: Scenario("x", 2, ("+", "+"), ("+", "+"), (eigenstate_query(ExplicitState(5)),)),
     "expected a collection of amplitudes, got int"),
    # a string is one label, not one label per character
    (lambda: MeasurementSet([Operator.identity(1)] * 2, labels="ab"),
     "expected an iterable of labels, got str"),
    # every tolerance a library function takes is a real number other than NaN
    (lambda: is_projector(Operator.identity(1), None), "tolerance must be a real number, got None"),
    (lambda: is_hermitian(Operator.identity(1), "a"), "tolerance must be a real number"),
    (lambda: are_orthogonal(Operator.identity(1), Operator.identity(1), float("nan")),
     "tolerance must be a real number, got nan"),
    (lambda: is_resolution_of_identity([Operator.identity(1)], "a"),
     "tolerance must be a real number"),
    (lambda: abl_probabilities(ONE_PARTICLE, MeasurementSet([Operator.identity(1)]), "x"),
     "tolerance must be a real number, got 'x'"),
    (lambda: is_eigenstate(Operator.identity(1), make_single_particle_state("+"), 1, "a"),
     "tolerance must be a real number, got 'a'"),
    (lambda: weak_value(ONE_PARTICLE, Operator.identity(1), 1j), "tolerance must be a real number"),
    (lambda: weak_value_sum(ONE_PARTICLE, [], "a"), "tolerance must be a real number"),
    (lambda: detailed_probability(ONE_PARTICLE, [], "a"), "tolerance must be a real number"),
    (lambda: global_probability(ONE_PARTICLE, [Operator.identity(1)], None),
     "tolerance must be a real number"),
    (lambda: vanishes(0j, "a"), "tolerance must be a real number"),
    # the text fields of a scenario are strings, which its report renders
    (lambda: Scenario(5, 1, ("+",), ("+",), ()), r"expected a name \(str\), got int"),
    (lambda: Scenario("x", 1, ("+",), ("+",), (), description=5),
     r"expected a description \(str\), got int"),
    (lambda: Scenario("x", 1, ("+",), ("+",), (), notes=(5,)), r"expected a note \(str\), got int"),
    (lambda: Scenario("x", 1, ("+",), ("+",), (), notes="ab"),
     "expected a collection of notes, got str"),
    (lambda: Scenario("x", 1, ("+",), ("+",), (AblAmplitudeQuery((), claim=5),)),
     r"expected a claim \(str or None\), got int"),
    # names are looked up, so an unhashable one is unknown
    (lambda: label_scheme(["box"]), r"unknown label scheme \['box'\]"),
    (lambda: canonical_state_name(["+"]), r"unknown state name \['\+'\]"),
    (lambda: basis_state(5), r"expected a basis label \(str\), got int"),
    (lambda: basis_state("L", "spin"), "expected a LabelScheme, got str"),
    (lambda: Ket([1, 0], "spin"), "expected a LabelScheme, got str"),
    (lambda: Operator(np.eye(2), labels="spin"), "expected a LabelScheme, got str"),
    (lambda: Operator.identity(1).with_labels("spin"), "expected a LabelScheme, got str"),
    # a particle count is an integer, and a bool is none
    (lambda: ProjectorSpec("box", True, particle=1, box="L"),
     rf"n_particles must lie in 1\.\.{MAX_PARTICLES}$"),
    (lambda: HamiltonianSpec((), True), rf"n_particles must lie in 1\.\.{MAX_PARTICLES}$"),
    # refused before anything of size 2**n is allocated
    (lambda: Operator.identity("x"), rf"n_particles must lie in 1\.\.{MAX_PARTICLES}$"),
    (lambda: Operator.zero(MAX_PARTICLES + 8), rf"n_particles must lie in 1\.\.{MAX_PARTICLES}$"),
    (lambda: Scenario("x", 1, ("+",), ("+",), 5), "expected a collection of queries, got int"),
    # a scenario's particle count is one, and its states are one spec per particle
    (lambda: Scenario("x", True, ("+",), ("+",), ()),
     rf"n_particles must lie in 1\.\.{MAX_PARTICLES}$"),
    (lambda: Scenario("x", MAX_PARTICLES + 1, ("+",) * (MAX_PARTICLES + 1),
                      ("+",) * (MAX_PARTICLES + 1), ()),
     rf"n_particles must lie in 1\.\.{MAX_PARTICLES}$"),
    (lambda: Scenario("x", 2, "LR", "+-", ()), "expected a collection of state specs, got str"),
    (lambda: Scenario("x", 2, ("+", "+"), 5, ()), "expected a collection of state specs, got int"),
    (lambda: Scenario("x", 2, ("+", "+"), ("+", "+"), (eigenstate_query(ProductState("LR")),)),
     "expected a collection of state specs, got str"),
    (lambda: Scenario("x", 2, ("+", "+"), ("+", "+"), (eigenstate_query(ExplicitState("1000")),)),
     "expected a collection of amplitudes, got str"),
    # an int beyond the float range is no amplitude, and a squared norm past it is not 1
    (lambda: Ket([10**400, 0]), "amplitudes must be an array of numbers"),
    (lambda: Ket([0, 1e17 + 1e292j]), r"not normalized \(squared norm inf\)"),
])
def test_bad_library_arguments_are_twobox_errors(build, message):
    with pytest.raises(TwoBoxError, match=message) as caught:
        build()
    assert isinstance(caught.value, ValueError)


def test_predicate_query_validation():
    from twobox import HamiltonianSpec
    op = HamiltonianSpec.of([(1, ProjectorSpec.all_same(2))])
    with pytest.raises(ValueError, match="unknown predicate check"):
        PredicateQuery("is_idempotent", (op,))
    with pytest.raises(ValueError, match="exactly 2 operand"):
        PredicateQuery("orthogonal", (op,))
    with pytest.raises(ValueError, match="needs a state"):
        PredicateQuery("eigenstate", (op,))
    with pytest.raises(ValueError, match="takes no state"):
        PredicateQuery("is_projector", (op,), state=ProductState(("L", "L")))
    with pytest.raises(ValueError, match="at least one operand"):
        PredicateQuery("resolution_of_identity", ())
    query = PredicateQuery("eigenstate", (op,),
                           state=ExplicitState((1, 0, 0, 0)), eigenvalue=1)
    assert query.check == "eigenstate"


def test_failed_queries_become_error_records():
    scenario = Scenario(
        name="orthogonal-selection",
        n_particles=1,
        pre=("L",),
        post=("R",),
        queries=(
            WeakValueQuery((ProjectorSpec.box_occupation(1, "L", 1),)),
            AblProbabilitiesQuery(((ProjectorSpec.box_occupation(1, "L", 1),),
                                   (ProjectorSpec.box_occupation(1, "R", 1),))),
            AblProbabilitiesQuery(()),
        ),
    )
    report = run_scenario(scenario)
    assert report.has_errors()
    assert report.records[0].error == "orthogonal pre/postselection"
    assert report.records[0].results == ()
    assert report.records[1].error == "impossible postselection"
    assert report.records[2].error == "a measurement set needs at least one projector"
    # a negative library tolerance still refuses the exact zero overlap
    assert run_scenario(scenario, tol=-1.0).records[0].error == "orthogonal pre/postselection"


@pytest.mark.parametrize("tol", ["a", None, float("nan"), 1j])
def test_run_scenario_refuses_a_tolerance_that_is_not_a_real_number(tol):
    scenario = lookup_scenario("detailed-vs-global")
    with pytest.raises(InvalidArgumentError, match="tolerance must be a real number, got "):
        run_scenario(scenario, tol)
    # negative tolerances stay allowed: they mark every value non-vanishing
    assert run_scenario(scenario, -1.0).tolerance == -1.0


def test_bad_explicit_states_in_code_become_error_records():
    # files are refused at parse time; a Scenario built in code fails at run time
    shared = HamiltonianSpec.of([(1, ProjectorSpec.pair_same(1, 2, 2))])
    split = PredicateQuery("eigenstate", (shared,), state=ProductState(("L", "R")),
                           eigenvalue=1)
    for amplitudes, message in [((1, 0, 0, 1), "state vector is not normalized"),
                                ((float("nan"), 0, 0, 1), "amplitudes must be finite")]:
        scenario = Scenario(
            name="explicit-in-code",
            n_particles=2,
            pre=("+", "+"),
            post=("+", "+"),
            queries=(PredicateQuery("eigenstate", (shared,),
                                    state=ExplicitState(amplitudes), eigenvalue=1), split),
        )
        report = run_scenario(scenario)
        assert report.records[0].results == ()
        assert report.records[0].error.startswith(message)
        assert report.records[1].error is None


def test_custom_scenario_with_explicit_states():
    # an explicit coefficient pair behaves like its named equivalent
    scenario = Scenario(
        name="explicit",
        n_particles=2,
        pre=((1, 1), (1, 1)),
        post=("+", "+"),
        queries=(WeakValueQuery((ProjectorSpec.pair_same(1, 2, 2),)),),
    )
    report = run_scenario(scenario)
    assert report.pre == ("(1, 1)", "(1, 1)")
    assert abs(values(report.records[0])["weak_value"] - 0.5) <= TOL


def test_identity_product_target():
    scenario = Scenario(
        name="identity-question",
        n_particles=1,
        pre=("+",),
        post=("+",),
        queries=(WeakValueQuery(()),),
    )
    report = run_scenario(scenario)
    assert report.records[0].target == "identity"
    assert values(report.records[0])["weak_value"] == 1.0


def test_tolerance_is_recorded():
    report = run_scenario(lookup_scenario("pigeonhole3"), tol=1e-9)
    assert report.tolerance == 1e-9


@pytest.mark.parametrize("tol, used", [
    (np.float64(1e-12), 1e-12), (np.float32(0.5), 0.5), (np.int64(-1), -1.0),
    (Fraction(1, 2), 0.5), (True, 1.0), (-1, -1), (0.5, 0.5)])
def test_a_real_tolerance_of_another_type_runs_as_its_float(tol, used):
    # an int or a float is kept as given, so the int -1 is still written as -1
    for scenario in builtin_scenarios():
        report, reference = run_scenario(scenario, tol), run_scenario(scenario, used)
        assert type(report.tolerance) is type(used) and report == reference
        for record in report.records:
            for value in record.results:
                assert type(value.value) in (bool, float, complex)
                assert value.vanishing is None or type(value.vanishing) is bool
        assert render_report_json(report) == json.dumps(
            report_to_document(report), indent=2, sort_keys=True, ensure_ascii=False)


def test_a_tolerance_with_no_float_is_refused():
    with pytest.raises(InvalidArgumentError, match="^tolerance beyond float range: Fraction"):
        run_scenario(lookup_scenario("pigeonhole3"), Fraction(10**400))


def test_every_query_type_runs_at_the_particle_limit():
    # one dense 2**12 x 2**12 complex matrix alone takes 268 MB
    n = MAX_PARTICLES
    assert n == 12
    same = lambda i, j: ProjectorSpec.pair_same(i, j, n)
    sd = ProjectorSpec.sd(1, 2, 3, n)
    every = ProjectorSpec.all_same(n)
    ham = lambda *specs: HamiltonianSpec.of([(1, s) for s in specs])
    scenario = Scenario(
        name="limit", n_particles=n, pre=("+",) * n, post=("+i",) * n,
        queries=(
            AblAmplitudeQuery((same(1, 2),)),
            AblProbabilitiesQuery(((same(1, 2),), (ProjectorSpec.pair_diff(1, 2, n),))),
            WeakValueQuery((sd, same(4, 5))),
            WeakValueSumQuery(((same(1, 2),), (same(2, 3),))),
            DetailedVsGlobalQuery(((sd,), (every,))),
            TransitionElementQuery(HamiltonianSpec.of([(0.5, same(1, 2)), (2j, every)])),
            PredicateQuery("is_projector", (ham(same(1, 2), same(2, 3)),)),
            PredicateQuery("orthogonal", (ham(sd), ham(every))),
            PredicateQuery("resolution_of_identity", (ham(same(1, 2)), ham(same(1, 2)))),
            PredicateQuery("eigenstate", (ham(every),), state=ProductState(("L",) * n),
                           eigenvalue=1),
        ),
    )
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = run_scenario(scenario)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.has_errors()
    assert elapsed < 1.0
    assert peak < 16 * 2**20
    assert report.records[0].results[0].vanishing  # pair sharing is never found
    assert values(report.records[7])["orthogonal"] is True
    assert values(report.records[8])["resolution_of_identity"] is False
    assert values(report.records[9])["is_eigenstate"] is True


def operator_api_results(query, sel, tol):
    """What a spec-built query yields when computed with built operators."""
    n = sel.n_particles
    build = lambda product: reduce(lambda a, b: a @ b, map(build_projector, product),
                                   Operator.identity(n))
    if isinstance(query, AblAmplitudeQuery):
        yield "amplitude", abl_amplitude(sel, build(query.projector))
    elif isinstance(query, WeakValueQuery):
        yield "weak_value", weak_value(sel, build(query.projector), tol)
        yield "amplitude", abl_amplitude(sel, build(query.projector))
        yield "overlap", sel.overlap()
    elif isinstance(query, AblProbabilitiesQuery):
        outcome = abl_probabilities(sel, MeasurementSet(list(map(build, query.projectors))), tol)
        for amp, prob in zip(outcome.amplitudes, outcome.probabilities):
            yield "amplitude", amp
            yield "probability", prob
        yield "normalization", outcome.normalization
    elif isinstance(query, WeakValueSumQuery):
        ops = list(map(build, query.projectors))
        for op in ops:
            yield "weak_value", weak_value(sel, op, tol)
        yield "weak_value_sum", weak_value_sum(sel, ops, tol)
    elif isinstance(query, DetailedVsGlobalQuery):
        ops = list(map(build, query.members))
        for op in ops:
            yield "amplitude", abl_amplitude(sel, op)
        yield "detailed", detailed_probability(sel, ops, tol)
        yield "global", global_probability(sel, ops, tol)
    else:
        yield "transition_element", transition_element(sel, build_hamiltonian(query.hamiltonian))


@pytest.mark.parametrize("tol", [-1.0, 1e-300, 1e-12, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("pre, post", [(("+", "+", "+"), ("+i", "+i", "+i")),
                                       (((1, 2j), "-", "L"), ("+", (0.6, -0.8), (1, 1j))),
                                       (("L", "L", "+"), ("L", "+", (1, -0.999)))])
def test_spec_built_queries_agree_with_the_operator_api(pre, post, tol):
    box = lambda p, b: ProjectorSpec.box_occupation(p, b, 3)
    same, diff = ProjectorSpec.pair_same(1, 2, 3), ProjectorSpec.pair_diff(1, 2, 3)
    sd = ProjectorSpec.sd(1, 2, 3, 3)
    every = ProjectorSpec.all_same(3)
    queries = (
        AblAmplitudeQuery((same, box(3, "R"))),
        AblAmplitudeQuery((every, box(2, "L"))),
        WeakValueQuery((sd,)),
        AblProbabilitiesQuery(((same,), (diff,))),
        AblProbabilitiesQuery(((same,), (diff,), (box(1, "L"),))),
        AblProbabilitiesQuery(((box(1, "L"),),)),
        WeakValueSumQuery(((same,), (ProjectorSpec.pair_same(2, 3, 3),), (every,))),
        WeakValueSumQuery(()),
        DetailedVsGlobalQuery(((box(1, "L"), box(2, "L")), (box(1, "R"), box(2, "R")))),
        DetailedVsGlobalQuery(((same,), (ProjectorSpec.pair_same(2, 3, 3),))),
        DetailedVsGlobalQuery(()),
        TransitionElementQuery(HamiltonianSpec.of([(0.5, same), (2j, every), (-1, sd)])),
    )
    report = run_scenario(Scenario("both-paths", 3, pre, post, queries), tol)
    sel = PrePostSelection(tensor([make_single_particle_state(f) for f in pre]),
                           tensor([make_single_particle_state(f) for f in post]))
    for record, query in zip(report.records, queries):
        expected, error = [], None
        try:
            for name, value in operator_api_results(query, sel, tol):
                expected.append(value)
        except IllegitimateQuestionError as exc:
            error = str(exc)
        except TwoBoxError as exc:
            expected, error = [], str(exc)
        assert record.error == error, record.target
        assert len(record.results) == len(expected), record.target
        for result, value in zip(record.results, expected):
            assert abs(result.value - value) <= 1e-12 * max(1, abs(value)), result.name


@pytest.mark.parametrize("post", [("+", "+"), ("+i", "+i")])
def test_transition_element_past_the_float_range_matches_the_built_operator(post):
    # the coefficient magnitudes sum to inf, so the query asks its label classes
    # whether the built operator is refused; it is not, and the per-term sum
    # matches the built operator's element
    box = lambda b: ProjectorSpec.box_occupation(1, b, 2)
    query = TransitionElementQuery(HamiltonianSpec.of([(1.7e308, box("L")), (1.7e308, box("R"))]))
    record = run_scenario(Scenario("huge", 2, ("+", "+"), post, (query,))).records[0]
    sel = PrePostSelection(tensor([make_single_particle_state("+")] * 2),
                           tensor([make_single_particle_state(f) for f in post]))
    expected = transition_element(sel, build_hamiltonian(query.hamiltonian))
    assert abs(values(record)["transition_element"] - expected) <= 1e-15 * abs(expected)


def test_weak_value_sum_cross_checks_the_factorized_amplitudes(monkeypatch):
    exact = _LabelClasses.amplitude
    monkeypatch.setattr(_LabelClasses, "amplitude",
                        lambda self, product: exact(self, product) * (1 + 1e-9 * len(product)))
    pair = lambda i, j: (ProjectorSpec.pair_same(i, j, 3),)
    scenario = Scenario("skewed", 3, ("+",) * 3, ("+",) * 3,
                        (WeakValueSumQuery((pair(1, 2), pair(2, 3))),))
    record = run_scenario(scenario).records[0]
    assert record.results == ()
    assert record.error.startswith("weak value linearity cross-check failed")


def spec_partition(specs, n):
    """The partition of ``specs`` read from the specs alone: the particles they
    name, and whether ``all_same`` splits the others."""
    named = frozenset(k for spec in specs
                      for k in (spec.particle, spec.other, *(spec.pair or ())) if k is not None)
    return named, len(named) < n and any(spec.kind == "all_same" for spec in specs)


def asked_partitions(query, n):
    """The partitions whose classes a query reads from its run's object."""
    if isinstance(query, (AblAmplitudeQuery, WeakValueQuery)):
        return {spec_partition(query.projector, n)}
    if isinstance(query, TransitionElementQuery):
        return {spec_partition((spec,), n) for _, spec in query.hamiltonian.terms}
    if isinstance(query, PredicateQuery):
        return set()  # its class diagonals have unit weights, on an object of their own
    products = query.members if isinstance(query, DetailedVsGlobalQuery) else query.projectors
    return {spec_partition(p, n) for p in products} | {
        spec_partition([spec for p in products for spec in p], n)}


def test_a_run_walks_each_partition_of_its_queries_once(monkeypatch):
    walks = []
    walk = _LabelClasses._walk
    monkeypatch.setattr(_LabelClasses, "_walk",
                        lambda self, touched, split: walks.append((self, touched, split))
                        or walk(self, touched, split))
    runs = [(key, scenario) for key, scenario in corpus._scenarios()
            if key.startswith(("builtin ", "pigeonhole_doc "))]
    assert len(runs) == 16
    for key, scenario in runs:
        n = scenario.n_particles
        classes = _LabelClasses.between([_single_pair(f) for f in scenario.pre],
                                        [_single_pair(f) for f in scenario.post])
        for query in scenario.queries:
            try:
                list(query.results(classes, TOL))
            except TwoBoxError:
                pass
        walked = [(frozenset(k for k in range(1, n + 1) if touched >> (n - k) & 1), split)
                  for obj, touched, split in walks if obj is classes]
        # the empty product's partition is walked for <post|pre> when the object is made
        expected = set().union({spec_partition((), n)},
                               *(asked_partitions(query, n) for query in scenario.queries))
        assert len(walked) == len(expected), key
        assert set(walked) == expected, key

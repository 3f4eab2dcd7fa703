"""Builtin scenarios and the report machinery."""

import time
import tracemalloc
from functools import reduce

import pytest

import oracle
from twobox import scenarios
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
    build_hamiltonian,
    build_projector,
    builtin_scenarios,
    detailed_probability,
    global_probability,
    lookup_scenario,
    make_single_particle_state,
    relabel_to_spin,
    run_scenario,
    tensor,
    transition_element,
    weak_value,
    weak_value_sum,
)
from twobox.hilbert import eigenstate_residual

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


@pytest.mark.parametrize("build, message", [
    (lambda: ProjectorSpec.pair_same(1, 5, 3), "pair member 5 out of range 1..3"),
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
        ),
    )
    report = run_scenario(scenario)
    assert report.has_errors()
    assert report.records[0].error == "orthogonal pre/postselection"
    assert report.records[0].results == ()
    assert report.records[1].error == "impossible postselection"
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


def test_weak_value_sum_cross_checks_the_factorized_amplitudes(monkeypatch):
    exact = scenarios._product_amplitude
    monkeypatch.setattr(scenarios, "_product_amplitude",
                        lambda product, weights: exact(product, weights) * (1 + 1e-9 * len(product)))
    pair = lambda i, j: (ProjectorSpec.pair_same(i, j, 3),)
    scenario = Scenario("skewed", 3, ("+",) * 3, ("+",) * 3,
                        (WeakValueSumQuery((pair(1, 2), pair(2, 3))),))
    record = run_scenario(scenario).records[0]
    assert record.results == ()
    assert record.error.startswith("weak value linearity cross-check failed")

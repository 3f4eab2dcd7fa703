"""Builtin scenarios and the report machinery."""

import time
import tracemalloc

import pytest

import oracle
from twobox import (
    MAX_PARTICLES,
    AblAmplitudeQuery,
    AblProbabilitiesQuery,
    DetailedVsGlobalQuery,
    ExplicitState,
    HamiltonianSpec,
    PredicateQuery,
    ProductState,
    ProjectorSpec,
    Scenario,
    ScenarioNotFoundError,
    TransitionElementQuery,
    TwoBoxError,
    WeakValueQuery,
    WeakValueSumQuery,
    builtin_scenarios,
    lookup_scenario,
    run_scenario,
)

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

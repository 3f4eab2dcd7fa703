"""Conditional amplitudes, probabilities, weak values, and transitions."""

import io
from contextlib import redirect_stdout
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import oracle
from twobox import (
    DimensionMismatchError,
    HamiltonianSpec,
    IllegitimateQuestionError,
    ImpossiblePostselectionError,
    IncompleteMeasurementError,
    InvalidArgumentError,
    Ket,
    LinearityCheckError,
    MeasurementSet,
    NotAProjectorError,
    Operator,
    OrthogonalSelectionError,
    PrePostSelection,
    ProjectorSpec,
    TwoBoxError,
    abl_amplitude,
    abl_probabilities,
    basis_state,
    build_hamiltonian,
    build_projector,
    detailed_probability,
    global_probability,
    make_single_particle_state,
    tensor,
    transition_element,
    vanishes,
    weak_value,
    weak_value_sum,
)

TOL = 1e-12


def pigeonhole_selection():
    pre = tensor([make_single_particle_state("+")] * 3)
    post = tensor([make_single_particle_state("+i")] * 3)
    return PrePostSelection(pre, post)


def oracle_selection():
    return oracle.product_state(["+", "+", "+"]), oracle.product_state(["+i", "+i", "+i"])


def test_selection_overlap():
    sel = pigeonhole_selection()
    assert abs(sel.overlap() - (-(1 + 1j) / 4)) <= TOL
    assert sel.n_particles == 3
    with pytest.raises(DimensionMismatchError):
        PrePostSelection(basis_state("L"), basis_state("LL"))


def test_pair_sharing_amplitudes_vanish():
    sel = pigeonhole_selection()
    for i, j in [(1, 2), (2, 3), (3, 1)]:
        amp = abl_amplitude(sel, build_projector(ProjectorSpec.pair_same(i, j, 3)))
        assert amp == 0j  # exact cancellation, not merely small


def test_amplitudes_against_the_oracle():
    sel = pigeonhole_selection()
    o_pre, o_post = oracle_selection()
    for spec in [ProjectorSpec.pair_diff(1, 2, 3),
                 ProjectorSpec.all_same(3),
                 ProjectorSpec.sd(1, 2, 3, 3),
                 ProjectorSpec.box_occupation(2, "R", 3)]:
        mine = abl_amplitude(sel, build_projector(spec))
        ref = oracle.bracket(o_post, oracle.condition(spec), o_pre, 3)
        assert abs(mine - ref) <= TOL, spec.label()
    assert abs(abl_amplitude(sel, build_projector(ProjectorSpec.all_same(3)))
               - (1 + 1j) / 8) <= TOL
    assert abs(abl_amplitude(sel, build_projector(ProjectorSpec.sd(1, 2, 3, 3)))
               - (-(1 + 1j) / 8)) <= TOL


def test_pair_measurement_probabilities():
    sel = pigeonhole_selection()
    measurement = MeasurementSet(
        [build_projector(ProjectorSpec.pair_same(1, 2, 3)),
         build_projector(ProjectorSpec.pair_diff(1, 2, 3))],
        ["same", "diff"])
    outcome = abl_probabilities(sel, measurement)
    assert outcome.probabilities == (0.0, 1.0)
    assert abs(outcome.normalization - 1 / 8) <= TOL
    assert abs(outcome.amplitudes[1] - (-(1 + 1j) / 4)) <= TOL


def test_refined_measurement_is_uniform():
    sel = pigeonhole_selection()
    specs = [ProjectorSpec.sd(1, 2, 3, 3), ProjectorSpec.sd(2, 3, 1, 3),
             ProjectorSpec.sd(3, 1, 2, 3), ProjectorSpec.all_same(3)]
    outcome = abl_probabilities(sel, MeasurementSet([build_projector(s) for s in specs]))
    for p in outcome.probabilities:
        assert abs(p - 0.25) <= TOL
    assert abs(outcome.normalization - 1 / 8) <= TOL


def test_equal_selection_pair_statistics():
    # with postselection equal to preselection the pair splits 50/50
    pre = tensor([make_single_particle_state("+")] * 3)
    sel = PrePostSelection(pre, pre)
    outcome = abl_probabilities(sel, MeasurementSet(
        [build_projector(ProjectorSpec.pair_same(1, 2, 3)),
         build_projector(ProjectorSpec.pair_diff(1, 2, 3))]))
    assert abs(outcome.probabilities[0] - 0.5) <= TOL
    assert abs(outcome.probabilities[1] - 0.5) <= TOL


def test_incomplete_measurement_is_refused():
    sel = pigeonhole_selection()
    lonely = MeasurementSet([build_projector(ProjectorSpec.pair_same(1, 2, 3))])
    with pytest.raises(IncompleteMeasurementError, match="incomplete measurement"):
        abl_probabilities(sel, lonely)


def test_unreachable_postselection_is_refused():
    sel = PrePostSelection(basis_state("L"), basis_state("R"))
    measurement = MeasurementSet(
        [build_projector(ProjectorSpec.box_occupation(1, "L", 1)),
         build_projector(ProjectorSpec.box_occupation(1, "R", 1))])
    with pytest.raises(ImpossiblePostselectionError, match="impossible postselection"):
        abl_probabilities(sel, measurement)


def test_weak_values():
    sel = pigeonhole_selection()
    cases = [
        (ProjectorSpec.pair_same(1, 2, 3), 0.0),
        (ProjectorSpec.pair_diff(1, 2, 3), 1.0),
        (ProjectorSpec.all_same(3), -0.5),
        (ProjectorSpec.sd(1, 2, 3, 3), 0.5),
    ]
    for spec, expected in cases:
        value = weak_value(sel, build_projector(spec))
        assert abs(value - expected) <= TOL, spec.label()


def test_weak_value_needs_nonorthogonal_selection():
    sel = PrePostSelection(basis_state("L"), basis_state("R"))
    with pytest.raises(OrthogonalSelectionError, match="orthogonal pre/postselection"):
        weak_value(sel, Operator.identity(1))
    # a negative library tolerance still refuses the exact zero overlap
    with pytest.raises(OrthogonalSelectionError, match="orthogonal pre/postselection"):
        weak_value(sel, Operator.identity(1), -1.0)


def test_weak_values_of_a_resolution_sum_to_one():
    sel = pigeonhole_selection()
    specs = [ProjectorSpec.sd(1, 2, 3, 3), ProjectorSpec.sd(2, 3, 1, 3),
             ProjectorSpec.sd(3, 1, 2, 3), ProjectorSpec.all_same(3)]
    total = sum(weak_value(sel, build_projector(s)) for s in specs)
    assert abs(total - 1.0) <= TOL


def test_weak_value_sum_of_the_two_pair_questions():
    sel = pigeonhole_selection()
    ops = [build_projector(ProjectorSpec.pair_same(1, 2, 3)),
           build_projector(ProjectorSpec.pair_same(2, 3, 3))]
    total = weak_value_sum(sel, ops)
    assert abs(total) <= TOL
    assert weak_value_sum(sel, []) == 0j


def test_weak_value_sum_matches_member_sum():
    rng = np.random.default_rng(314159)
    for _ in range(20):
        pre = Ket.normalized(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        post = Ket.normalized(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        sel = PrePostSelection(pre, post)
        if abs(sel.overlap()) < 1e-3:
            continue
        ops = [build_projector(ProjectorSpec.pair_same(1, 2, 3)),
               build_projector(ProjectorSpec.sd(2, 3, 1, 3)),
               build_projector(ProjectorSpec.box_occupation(3, "L", 3))]
        total = weak_value_sum(sel, ops)
        by_hand = sum(weak_value(sel, op) for op in ops)
        assert abs(total - by_hand) <= TOL


def test_weak_value_sum_cross_check_scales_with_the_magnitudes(monkeypatch):
    # the two routes differ in the last bit here; a 1e-20 tolerance must not turn
    # that rounding into a failure, since tol only guards the overlap
    pre = tensor([make_single_particle_state((0.6 + 0.1j, 0.3 - 0.735j)),
                  make_single_particle_state("+"), make_single_particle_state("+i")])
    post = tensor([make_single_particle_state((0.2 + 0.7j, -0.5 + 0.469j)),
                   make_single_particle_state("-i"), make_single_particle_state("+")])
    sel = PrePostSelection(pre, post)
    ops = [build_projector(ProjectorSpec.pair_same(1, 2, 3)),
           build_projector(ProjectorSpec.pair_diff(2, 3, 3)),
           build_projector(ProjectorSpec.box_occupation(3, "L", 3)),
           build_projector(ProjectorSpec.all_same(3))]
    members = [weak_value(sel, op) for op in ops]
    assert sum(members) != weak_value(sel, sum(ops[1:], start=ops[0]))
    assert weak_value_sum(sel, ops, tol=1e-20) == sum(members)

    # a real disagreement between the routes is a library error, not a bare ArithmeticError
    import twobox.dense as dense
    monkeypatch.setattr(dense, "weak_value",
                        lambda selection, op, tol=TOL: weak_value(selection, op, tol) + 1e-9)
    with pytest.raises(LinearityCheckError, match="linearity cross-check failed") as info:
        weak_value_sum(sel, ops)
    assert isinstance(info.value, TwoBoxError)


def test_numerator_identity_on_random_selections():
    # weak value times overlap reproduces the conditional amplitude
    rng = np.random.default_rng(2718)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        dim = 2**n
        pre = Ket.normalized(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        post = Ket.normalized(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        sel = PrePostSelection(pre, post)
        if abs(sel.overlap()) < 1e-3:
            continue
        op = Operator(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        assert abs(weak_value(sel, op) * sel.overlap() - abl_amplitude(sel, op)) <= 1e-10


def test_detailed_and_global_disagree_for_the_pigeonhole_selection():
    sel = pigeonhole_selection()
    members = [build_projector(ProjectorSpec.box_occupation(1, "L", 3))
               @ build_projector(ProjectorSpec.box_occupation(2, "L", 3)),
               build_projector(ProjectorSpec.box_occupation(1, "R", 3))
               @ build_projector(ProjectorSpec.box_occupation(2, "R", 3))]
    assert abs(detailed_probability(sel, members) - 1 / 16) <= TOL
    assert abs(global_probability(sel, members)) <= TOL
    # member amplitudes cancel pairwise in the coherent sum
    amps = [abl_amplitude(sel, m) for m in members]
    assert abs(amps[0] - (1 - 1j) / 8) <= TOL
    assert abs(amps[1] + (1 - 1j) / 8) <= TOL


def test_global_can_also_exceed_detailed():
    pre = tensor([make_single_particle_state("+")] * 2)
    sel = PrePostSelection(pre, pre)
    members = [build_projector(ProjectorSpec.box_occupation(1, "L", 2))
               @ build_projector(ProjectorSpec.box_occupation(2, "L", 2)),
               build_projector(ProjectorSpec.box_occupation(1, "R", 2))
               @ build_projector(ProjectorSpec.box_occupation(2, "R", 2))]
    assert abs(detailed_probability(sel, members) - 1 / 8) <= TOL
    assert abs(global_probability(sel, members) - 1 / 4) <= TOL


def test_detailed_probability_edge_cases():
    sel = pigeonhole_selection()
    assert detailed_probability(sel, []) == 0.0
    assert abs(detailed_probability(sel, [Operator.identity(3)]) - 1 / 8) <= TOL
    with pytest.raises(NotAProjectorError, match="non-projector member"):
        detailed_probability(sel, [0.5 * Operator.identity(3)])


def test_global_probability_needs_a_projector_sum():
    sel = pigeonhole_selection()
    overlapping = [build_projector(ProjectorSpec.pair_same(1, 2, 3)),
                   build_projector(ProjectorSpec.pair_same(2, 3, 3))]
    with pytest.raises(IllegitimateQuestionError, match="not a legitimate question"):
        global_probability(sel, overlapping)
    with pytest.raises(ValueError, match="at least one"):
        global_probability(sel, [])


def outcome(call):
    """What ``call`` returns, to the bit, or the type and message of its TwoBoxError."""
    try:
        return repr(call())
    except TwoBoxError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("products, legitimate", [
    ([(("box", 1, "L"), ("box", 2, "L")), (("box", 1, "R"), ("box", 2, "R"))], True),
    ([(("pair_same", 1, 2),), (("pair_same", 2, 3),)], False),  # overlapping members
    ([(("pair_same", 1, 2),), (("pair_diff", 1, 2),)], True),  # a complete set
    ([(("sd", 1, 2, 3),)], True),
])
@pytest.mark.parametrize("scale", [1, 0.5])  # 0.5: no member is a projector
def test_a_measurement_set_asks_what_its_projectors_ask(products, legitimate, scale):
    makers = {"box": ProjectorSpec.box_occupation, "pair_same": ProjectorSpec.pair_same,
              "pair_diff": ProjectorSpec.pair_diff, "sd": ProjectorSpec.sd}
    ops = [scale * reduce(lambda a, b: a @ b,
                          (build_projector(makers[kind](*args, 3)) for kind, *args in product))
           for product in products]
    measurement = MeasurementSet(ops)
    sel = pigeonhole_selection()
    for probability in (detailed_probability, global_probability):
        assert outcome(lambda: probability(sel, measurement)) == outcome(lambda: probability(sel, ops))
    if scale == 1:
        assert isinstance(detailed_probability(sel, measurement), float)
    if not legitimate or scale != 1:
        with pytest.raises(IllegitimateQuestionError, match="not a legitimate question"):
            global_probability(sel, measurement)


def test_transition_elements():
    sel = pigeonhole_selection()
    pairwise = build_hamiltonian(HamiltonianSpec.of(
        [(1, ProjectorSpec.pair_same(1, 2, 3)),
         (1, ProjectorSpec.pair_same(2, 3, 3)),
         (1, ProjectorSpec.pair_same(3, 1, 3))]))
    refined = build_hamiltonian(HamiltonianSpec.of(
        [(1, ProjectorSpec.sd(1, 2, 3, 3)),
         (1, ProjectorSpec.sd(2, 3, 1, 3)),
         (1, ProjectorSpec.sd(3, 1, 2, 3))]))
    assert vanishes(transition_element(sel, pairwise), TOL)
    assert abs(transition_element(sel, refined) - (-3 * (1 + 1j) / 8)) <= TOL
    o_pre, o_post = oracle_selection()
    ref = oracle.weighted_bracket(
        o_post, [(1, ProjectorSpec.sd(i, j, k, 3))
                 for i, j, k in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]], o_pre, 3)
    assert abs(transition_element(sel, refined) - ref) <= TOL


def test_phase_change_of_the_selection_moves_nothing_observable():
    rng = np.random.default_rng(40)
    base = pigeonhole_selection()
    measurement = MeasurementSet(
        [build_projector(ProjectorSpec.pair_same(1, 2, 3)),
         build_projector(ProjectorSpec.pair_diff(1, 2, 3))])
    op = build_projector(ProjectorSpec.all_same(3))
    for _ in range(10):
        a, b = rng.uniform(0, 2 * np.pi, size=2)
        sel = PrePostSelection(
            Ket(np.exp(1j * a) * base.pre.amplitudes),
            Ket(np.exp(1j * b) * base.post.amplitudes))
        turned = abl_probabilities(sel, measurement)
        flat = abl_probabilities(base, measurement)
        for p, q in zip(turned.probabilities, flat.probabilities):
            assert abs(p - q) <= TOL
        assert abs(weak_value(sel, op) - weak_value(base, op)) <= TOL


def test_vanishes_threshold():
    assert vanishes(0.0)
    assert vanishes(1e-13 + 1e-13j)
    assert not vanishes(1e-9)
    assert vanishes(0.5, tol=1.0)


def test_vanishes_refuses_a_non_number_and_keeps_every_number_verdict():
    for value in ("a", None, [0.0], {}):
        with pytest.raises(InvalidArgumentError, match="value must be a number") as info:
            vanishes(value)
        assert isinstance(info.value, TwoBoxError)
    numbers = [0, 1, True, False, 1e-13, -1e-12, 1e-12 + 1e-15, 1e-13j, complex(1e300, 1e300),
               Fraction(1, 10**13), Decimal("1e-13"), np.float64(1e-13), np.complex128(1e-9j),
               np.int64(0), float("inf"), float("nan")]
    verdicts = [True, False, False, True, True, True, False, True, False,
                True, True, True, False, True, False, False]
    assert [vanishes(value) for value in numbers] == verdicts


def test_measurement_set_basics():
    ops = [build_projector(ProjectorSpec.box_occupation(1, "L", 1)),
           build_projector(ProjectorSpec.box_occupation(1, "R", 1))]
    measurement = MeasurementSet(ops)
    assert measurement.labels == ("outcome0", "outcome1")
    assert len(measurement) == 2
    assert list(measurement) == list(ops)
    with pytest.raises(ValueError, match="at least one"):
        MeasurementSet([])
    with pytest.raises(ValueError, match="pair up"):
        MeasurementSet(ops, ["only-one"])
    with pytest.raises(DimensionMismatchError):
        MeasurementSet([ops[0], Operator.identity(2)])
    with pytest.raises(AttributeError):
        measurement.labels = ()


def test_the_readme_library_example_prints_what_its_comments_say():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(example, {})
    printed = out.getvalue().splitlines()
    comments = [line.split("#", 1)[1].strip() for line in example.splitlines()
                if line.startswith("print(")]
    assert printed == ["0j", "(-0.5-0j)", "(0.25, 0.25, 0.25, 0.25)"]
    assert len(comments) == len(printed)
    for line, comment in zip(printed, comments):
        assert comment.startswith(line)

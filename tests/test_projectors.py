"""Correlation projectors, weighted sums, and structural predicates."""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from twobox import (
    AblAmplitudeQuery,
    DimensionMismatchError,
    HamiltonianSpec,
    InvalidArgumentError,
    Ket,
    Operator,
    PrePostSelection,
    ProjectorSpec,
    SPIN_LABELS,
    Scenario,
    TwoBoxError,
    abl_amplitude,
    apply,
    are_orthogonal,
    basis_state,
    build_hamiltonian,
    build_projector,
    idempotency_defect,
    is_hermitian,
    is_projector,
    is_resolution_of_identity,
    make_single_particle_state,
    relabel_to_spin,
    run_scenario,
    tensor,
)
from twobox.hilbert import eigenstate_residual
from twobox.projectors import _mask_sum_is_projector, _masks_resolve_identity, _product_mask


def sample_specs(n):
    """Every projector kind the package defines, instantiated for n particles."""
    specs = [ProjectorSpec.all_same(n)]
    for p in range(1, n + 1):
        specs.append(ProjectorSpec.box_occupation(p, "L", n))
        specs.append(ProjectorSpec.box_occupation(p, "R", n))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            specs.append(ProjectorSpec.pair_same(i, j, n))
            specs.append(ProjectorSpec.pair_diff(i, j, n))
            if n >= 3:
                for k in range(1, n + 1):
                    if k not in (i, j):
                        specs.append(ProjectorSpec.sd(i, j, k, n))
    return specs


def test_diagonals_match_the_oracle_exactly():
    for n in (2, 3, 4):
        for spec in sample_specs(n):
            op = build_projector(spec)
            expected = np.diag(oracle.diagonal(spec))
            # entries are exact 0s and 1s, so bitwise equality is fair
            assert np.array_equal(op.entries, expected), spec.label()


def test_projectors_are_read_only():
    for spec in sample_specs(3):
        data = build_projector(spec)._data
        assert data.dtype == np.complex128 and not data.flags.writeable, spec.label()


def test_every_kind_is_a_projector():
    for spec in sample_specs(3):
        op = build_projector(spec)
        assert is_hermitian(op)
        assert idempotency_defect(op) == 0.0
        assert is_projector(op)


def test_complement_law_for_pairs():
    # pair_same(i,j) + pair_diff(i,j) is the identity, any pair, n up to 6
    for n in range(2, 7):
        eye = np.eye(2**n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                total = (build_projector(ProjectorSpec.pair_same(i, j, n))
                         + build_projector(ProjectorSpec.pair_diff(i, j, n)))
                assert np.array_equal(total.entries, eye)


def test_pair_sharing_splits_into_pinned_and_all():
    lhs = build_projector(ProjectorSpec.pair_same(1, 2, 3))
    rhs = (build_projector(ProjectorSpec.sd(1, 2, 3, 3))
           + build_projector(ProjectorSpec.all_same(3)))
    assert np.array_equal(lhs.entries, rhs.entries)


def test_pair_order_is_canonical():
    assert ProjectorSpec.pair_same(3, 1, 3).label() == "pair_same(1,3)"
    assert ProjectorSpec.pair_same(3, 1, 3) == ProjectorSpec.pair_same(1, 3, 3)
    assert ProjectorSpec.sd(3, 1, 2, 3).label() == "sd(1,3;2)"
    assert ProjectorSpec.box_occupation(2, "R", 3).label() == "box(2,R)"
    assert ProjectorSpec.all_same(4).label() == "all_same"


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown projector kind"):
        ProjectorSpec("swap", 3)
    with pytest.raises(ValueError, match="out of range 1..3"):
        ProjectorSpec.pair_same(1, 5, 3)
    with pytest.raises(ValueError, match="distinct"):
        ProjectorSpec.pair_diff(2, 2, 3)
    with pytest.raises(ValueError, match="differ from the pair"):
        ProjectorSpec.sd(1, 2, 2, 3)
    with pytest.raises(ValueError, match="at least three"):
        ProjectorSpec.sd(1, 2, 1, 2)
    with pytest.raises(ValueError, match="at least two"):
        ProjectorSpec.all_same(1)
    with pytest.raises(ValueError, match="box must be 'L' or 'R'"):
        ProjectorSpec.box_occupation(1, "M", 3)
    with pytest.raises(ValueError, match="n_particles"):
        ProjectorSpec.all_same(13)
    for kind in ("pair_same", "pair_diff", "sd"):
        with pytest.raises(ValueError, match="needs a pair of two particles"):
            ProjectorSpec(kind, 3, other=3)
    for malformed in ((1,), (1, 2, 3), 5):
        with pytest.raises(ValueError, match="needs a pair of two particles"):
            ProjectorSpec("pair_same", 3, pair=malformed)


def test_hamiltonian_spec_labels():
    same = ProjectorSpec.pair_same(1, 2, 3)
    diff = ProjectorSpec.pair_diff(1, 2, 3)
    assert HamiltonianSpec.of([(1, same), (1, diff)]).label() == \
        "pair_same(1,2) + pair_diff(1,2)"
    assert HamiltonianSpec.of([(0.5, same)]).label() == "0.5*pair_same(1,2)"
    assert HamiltonianSpec.of([(2j, same)]).label() == "2i*pair_same(1,2)"
    assert HamiltonianSpec.of([(1 + 2j, same)]).label() == "(1+2i)*pair_same(1,2)"
    assert HamiltonianSpec.of([(2.0**53 - 1, same)]).label() == "9007199254740991*pair_same(1,2)"
    assert HamiltonianSpec.of([(complex(1.7e308, -2.0**60), same)]).label() == \
        "(1.7e+308-1.152921504606847e+18i)*pair_same(1,2)"
    assert HamiltonianSpec((), 3).label() == "0"


def test_hamiltonian_spec_validation():
    with pytest.raises(ValueError, match="explicit n_particles"):
        HamiltonianSpec.of([])
    with pytest.raises(ValueError, match="acts on 2 particles"):
        HamiltonianSpec(((1, ProjectorSpec.all_same(2)),), 3)
    spec = HamiltonianSpec.of([(1, ProjectorSpec.all_same(2))])
    assert spec.n_particles == 2
    assert spec.terms[0][0] == 1 + 0j  # coefficients are coerced to complex


def test_build_hamiltonian():
    empty = build_hamiltonian(HamiltonianSpec((), 2))
    assert np.array_equal(empty.entries, np.zeros((4, 4)))
    weighted = build_hamiltonian(HamiltonianSpec.of(
        [(2, ProjectorSpec.pair_same(1, 2, 2)), (-1, ProjectorSpec.pair_diff(1, 2, 2))]))
    assert np.array_equal(weighted.entries, np.diag([2.0, -1.0, -1.0, 2.0]))


def test_sum_of_overlapping_pairs_is_not_a_projector():
    op = build_hamiltonian(HamiltonianSpec.of(
        [(1, ProjectorSpec.pair_same(1, 2, 3)), (1, ProjectorSpec.pair_same(2, 3, 3))]))
    assert is_hermitian(op)
    assert not is_projector(op)
    # the doubly counted all-same labels give diagonal value 2, and 2*2 - 2 = 2
    assert idempotency_defect(op) == 2.0


def test_orthogonality():
    sd1 = build_projector(ProjectorSpec.sd(1, 2, 3, 3))
    sd2 = build_projector(ProjectorSpec.sd(2, 3, 1, 3))
    same12 = build_projector(ProjectorSpec.pair_same(1, 2, 3))
    same23 = build_projector(ProjectorSpec.pair_same(2, 3, 3))
    assert are_orthogonal(sd1, sd2)
    assert not are_orthogonal(same12, same23)
    with pytest.raises(DimensionMismatchError):
        are_orthogonal(sd1, Operator.identity(2))


def test_resolution_of_identity():
    refined = [build_projector(s) for s in (
        ProjectorSpec.sd(1, 2, 3, 3),
        ProjectorSpec.sd(2, 3, 1, 3),
        ProjectorSpec.sd(3, 1, 2, 3),
        ProjectorSpec.all_same(3),
    )]
    assert is_resolution_of_identity(refined)
    pair = [build_projector(ProjectorSpec.pair_same(1, 2, 3)),
            build_projector(ProjectorSpec.pair_diff(1, 2, 3))]
    assert is_resolution_of_identity(pair)
    assert not is_resolution_of_identity(refined[:3])  # misses the all-same labels
    overlapping = [build_projector(ProjectorSpec.pair_same(1, 2, 3)),
                   build_projector(ProjectorSpec.pair_same(2, 3, 3))]
    assert not is_resolution_of_identity(overlapping)
    assert not is_resolution_of_identity([0.5 * Operator.identity(1),
                                          0.5 * Operator.identity(1)])
    with pytest.raises(ValueError, match="at least one"):
        is_resolution_of_identity([])
    with pytest.raises(DimensionMismatchError):
        is_resolution_of_identity([Operator.identity(1), Operator.identity(2)])


def test_relabel_keeps_every_number():
    ket = basis_state("LRL")
    spun = relabel_to_spin(ket)
    assert spun.labels is SPIN_LABELS
    assert np.array_equal(spun.amplitudes, ket.amplitudes)
    assert spun.basis_labels()[2] == "↑⇓↑"
    op = build_projector(ProjectorSpec.pair_same(1, 2, 2))
    assert np.array_equal(relabel_to_spin(op).entries, op.entries)
    with pytest.raises(InvalidArgumentError, match="cannot relabel"):
        relabel_to_spin(3)


def spec_products(n):
    """One to three projector specs on n particles, read as their product."""
    return st.lists(st.sampled_from(sample_specs(n)), min_size=1, max_size=3)


single_states = st.one_of(
    st.sampled_from(sorted(oracle.NAMED)),
    st.tuples(st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False),
              st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False))
    .filter(lambda pair: oracle.abs2(pair[0]) + oracle.abs2(pair[1]) > 1e-3),
)


def oracle_product_state(factors):
    """Label -> amplitude for a product state, normalized factor by factor."""
    pairs = []
    for f in factors:
        cL, cR = oracle.NAMED[f] if isinstance(f, str) else f
        scale = math.sqrt(oracle.abs2(cL) + oracle.abs2(cR))
        pairs.append((cL / scale, cR / scale))
    return {lab: math.prod(p[0] if c == "L" else p[1] for p, c in zip(pairs, lab))
            for lab in oracle.labels(len(factors))}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=6))
def test_diagonal_products_match_the_oracle_and_the_dense_twin(data, n):
    first, second = data.draw(spec_products(n)), data.draw(spec_products(n))
    pre_f = data.draw(st.lists(single_states, min_size=n, max_size=n))
    post_f = data.draw(st.lists(single_states, min_size=n, max_size=n))
    sel = PrePostSelection(tensor([make_single_particle_state(f) for f in pre_f]),
                           tensor([make_single_particle_state(f) for f in post_f]))
    o_pre, o_post = oracle_product_state(pre_f), oracle_product_state(post_f)

    a, b = (reduce(lambda x, y: x @ y, map(build_projector, specs))
            for specs in (first, second))
    cond = oracle.product_condition(first)
    assert a.diagonal().tolist() == [1.0 if cond(lab) else 0.0 for lab in oracle.labels(n)]
    amplitude = abl_amplitude(sel, a)
    assert abs(amplitude - oracle.bracket(o_post, cond, o_pre, n)) <= 1e-12

    dense_a, dense_b = Operator(a.entries), Operator(b.entries)
    assert abs(abl_amplitude(sel, dense_a) - amplitude) <= 1e-12
    overlap = oracle.product_condition(first + second)
    disjoint = not any(overlap(lab) for lab in oracle.labels(n))
    assert are_orthogonal(a, b) == are_orthogonal(dense_a, dense_b) == disjoint
    assert is_projector(a + b) == is_projector(dense_a + dense_b) == disjoint
    assert is_projector(a) and is_projector(dense_a)


def specs_on(n):
    return sample_specs(n) if n >= 2 else [ProjectorSpec.box_occupation(1, b, 1) for b in "LR"]


@pytest.mark.parametrize("n", range(1, 11))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_factorized_amplitudes_match_the_oracle_and_the_mask_path(n, data):
    product = tuple(data.draw(st.lists(st.sampled_from(specs_on(n)), max_size=3)))
    pre_f = data.draw(st.lists(single_states, min_size=n, max_size=n))
    post_f = data.draw(st.lists(single_states, min_size=n, max_size=n))
    report = run_scenario(Scenario("factorized", n, tuple(pre_f), tuple(post_f),
                                   (AblAmplitudeQuery(product), AblAmplitudeQuery(()))))
    amplitude, overlap = (record.results[0].value for record in report.records)

    o_pre, o_post = oracle_product_state(pre_f), oracle_product_state(post_f)
    assert abs(amplitude - oracle.bracket(o_post, oracle.product_condition(product), o_pre, n)) <= 1e-12
    assert abs(overlap - oracle.overlap(o_post, o_pre, n)) <= 1e-12

    sel = PrePostSelection(tensor([make_single_particle_state(f) for f in pre_f]),
                           tensor([make_single_particle_state(f) for f in post_f]))
    mask_op = reduce(lambda a, b: a @ b, map(build_projector, product), Operator.identity(n))
    assert abs(amplitude - abl_amplitude(sel, mask_op)) <= 1e-12
    assert abs(overlap - sel.overlap()) <= 1e-12


@st.composite
def measurement_products(draw, n):
    """Products that often resolve the identity, with members dropped, doubled or added."""
    i, j = draw(st.permutations(range(1, n + 1)))[:2]
    complete = draw(st.sampled_from([
        [(ProjectorSpec.box_occupation(i, "L", n),), (ProjectorSpec.box_occupation(i, "R", n),)],
        [(ProjectorSpec.pair_same(i, j, n),), (ProjectorSpec.pair_diff(i, j, n),)],
        [(ProjectorSpec.box_occupation(i, a, n), ProjectorSpec.box_occupation(j, b, n))
         for a in "LR" for b in "LR"],
    ]))
    extra = st.lists(st.sampled_from(sample_specs(n)), max_size=2).map(tuple)
    change = draw(st.sampled_from(["none", "drop", "double", "add"]))
    if change == "drop":
        complete.pop()
    elif change == "double":
        complete.append(complete[0])
    elif change == "add":
        complete.append(draw(extra))
    return complete


@pytest.mark.parametrize("tol", [-1.0, 1e-300, 1e-12, 0.5, 1.0, 2.0])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=5))
def test_exact_mask_checks_give_the_operator_verdicts(tol, data, n):
    products = data.draw(measurement_products(n))
    masks = [_product_mask(p, n) for p in products]
    ops = [reduce(lambda a, b: a @ b, map(build_projector, p), Operator.identity(n))
           for p in products]
    assert [op.diagonal().real.tolist() for op in ops] == [m.astype(float).tolist() for m in masks]
    assert _masks_resolve_identity(masks, tol) == is_resolution_of_identity(ops, tol)
    assert _mask_sum_is_projector(masks, tol) == is_projector(sum(ops[1:], start=ops[0]), tol)
    assert _mask_sum_is_projector(masks[:1], tol) == is_projector(ops[0], tol)


# magnitudes up to the largest double, so that squares, sums, differences and
# images overflow
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e154, -1e154, 1e200, 1e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False))
COMPLEXES = st.builds(complex, FLOATS, FLOATS)
HUGE = st.sampled_from([1e308, 1.7e308, -1.7e308])
MASK_ENTRIES = st.sampled_from([0j, 1 + 0j])


@st.composite
def operators(draw, dim):
    """A diagonal or dense operator: a 0/1 mask, arbitrary entries, huge ones, or a mix."""
    dense = draw(st.booleans())
    entry = draw(st.sampled_from([MASK_ENTRIES, COMPLEXES, st.builds(complex, HUGE, HUGE),
                                  st.one_of(MASK_ENTRIES, COMPLEXES)]))
    size = dim * dim if dense else dim
    values = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
    return Operator(values.reshape(dim, dim)) if dense else Operator.from_diagonal(values)


def outcome(call):
    """What ``call`` returns, to the bit, or the type and message of its TwoBoxError."""
    try:
        value = call()
    except TwoBoxError as exc:
        return type(exc), str(exc)
    if isinstance(value, Operator):
        return Operator, value._data.ndim, value._data.tobytes(), value.labels
    return type(value), repr(value)


def by_arithmetic(call):
    """``outcome`` of a reference expression in Operator arithmetic; its max_entry
    may warn of an overflowing magnitude, which is not what is compared."""
    with np.errstate(over="ignore", invalid="ignore"):
        return outcome(call)


def resolution_by_arithmetic(ops, tol):
    total = sum(ops[1:], start=ops[0])
    return (all((op - op.dagger()).max_entry() <= tol and (op @ op - op).max_entry() <= tol
                for op in ops)
            and all((a @ b).max_entry() <= tol and (b @ a).max_entry() <= tol
                    for i, a in enumerate(ops) for b in ops[i + 1:])
            and (total - Operator.identity(total.n_particles)).max_entry() <= tol)


def hamiltonian_by_arithmetic(spec):
    total = Operator.zero(spec.n_particles)
    for coeff, proj in spec.terms:
        total = total + coeff * build_projector(proj)
    return total


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 4]),
       tol=st.sampled_from([-1.0, 0.0, 1e-300, 1e-12, 0.5, 1.0, 1e300]))
def test_structural_checks_match_operator_arithmetic(data, dim, tol):
    # the other operands mostly share the first one's dimension
    a, b, c = (data.draw(operators(data.draw(st.sampled_from([dim, dim, dim, 6 - dim]))))
               for _ in range(3))
    ops = [a, b, c][:data.draw(st.integers(1, 3))]
    assert outcome(lambda: is_hermitian(a, tol)) == by_arithmetic(
        lambda: (a - a.dagger()).max_entry() <= tol)
    assert outcome(lambda: idempotency_defect(a)) == by_arithmetic(
        lambda: (a @ a - a).max_entry())
    assert outcome(lambda: is_projector(a, tol)) == by_arithmetic(
        lambda: (a - a.dagger()).max_entry() <= tol and (a @ a - a).max_entry() <= tol)
    assert outcome(lambda: are_orthogonal(a, b, tol)) == by_arithmetic(
        lambda: (a @ b).max_entry() <= tol and (b @ a).max_entry() <= tol)
    assert outcome(lambda: is_resolution_of_identity(ops, tol)) == by_arithmetic(
        lambda: resolution_by_arithmetic(ops, tol))

    amplitudes = data.draw(st.lists(st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)),
                                    min_size=dim, max_size=dim).filter(any))
    ket = Ket.normalized(amplitudes)
    eigenvalue = data.draw(st.one_of(COMPLEXES, st.sampled_from([0, 1, -1, 1j])))
    assert outcome(lambda: eigenstate_residual(a, ket, eigenvalue)) == by_arithmetic(
        lambda: float(np.linalg.norm(apply(a, ket).amplitudes - complex(eigenvalue) * ket.amplitudes)))

    n = data.draw(st.sampled_from([2, 3]))
    coefficients = st.one_of(st.sampled_from([1, -1, 0.5, 1j, complex("inf")]), COMPLEXES)
    spec = HamiltonianSpec.of(data.draw(st.lists(
        st.tuples(coefficients, st.sampled_from(sample_specs(n))), max_size=4)), n)
    assert outcome(lambda: build_hamiltonian(spec)) == by_arithmetic(
        lambda: hamiltonian_by_arithmetic(spec))

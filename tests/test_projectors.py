"""Correlation projectors, weighted sums, and structural predicates."""

import math
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from twobox import (
    AblAmplitudeQuery,
    AblProbabilitiesQuery,
    DEFAULT_TOLERANCE,
    DetailedVsGlobalQuery,
    DimensionMismatchError,
    HamiltonianSpec,
    InvalidAmplitudesError,
    InvalidArgumentError,
    Ket,
    Operator,
    PredicateQuery,
    PrePostSelection,
    ProductState,
    ProjectorSpec,
    SPIN_LABELS,
    Scenario,
    TwoBoxError,
    WeakValueSumQuery,
    abl_amplitude,
    apply,
    are_orthogonal,
    basis_state,
    build_hamiltonian,
    build_projector,
    idempotency_defect,
    is_eigenstate,
    is_hermitian,
    is_projector,
    is_resolution_of_identity,
    make_single_particle_state,
    relabel_to_spin,
    run_scenario,
    tensor,
    vanishes,
    weak_value_sum,
)
from twobox import projectors
from twobox.hilbert import (_explicit_amplitudes, _product_amplitudes, _single_pair,
                            eigenstate_residual)
from twobox.projectors import (_are_orthogonal, _check_entries, _class_diagonals,
                               _counts_resolve_identity, _eigenstate_residual, _entries,
                               _idempotency_defect, _is_hermitian, _is_projector,
                               _LabelClasses, _resolves_identity)


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


def test_a_product_past_the_float_range_is_not_orthogonal():
    # both parts of the product's entries are finite, but its magnitude is not
    same = ProjectorSpec.pair_same(1, 2, 2)
    sums = [HamiltonianSpec.of([(1e308 + 1e308j, same)]), HamiltonianSpec.of([(1.5, same)])]
    assert _are_orthogonal(*_class_diagonals(sums), DEFAULT_TOLERANCE) is False
    assert are_orthogonal(*map(build_hamiltonian, sums)) is False


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
    # all_same as often as every other kind together, alongside named specs
    product = tuple(data.draw(st.lists(class_specs(n), max_size=3)))
    if data.draw(st.booleans()):
        pre_f, post_f = data.draw(near_orthogonal_states(n))
    else:
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


def resolves_identity(table, tol):
    """The completeness check of ``abl_probabilities`` on a product table: one
    0/1 diagonal per product."""
    return _resolves_identity(list(zip(*(holds for _, holds in table))), tol)


def sum_is_projector(counts, tol):
    """The projector check of a ``detailed_vs_global`` member sum on its class
    diagonal: how many members hold on each class."""
    return _is_hermitian(counts, tol) and _idempotency_defect(counts) <= tol


@pytest.mark.parametrize("tol", [-1.0, 1e-300, 1e-12, 0.5, 1.0, 2.0])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=5))
def test_exact_mask_checks_give_the_operator_verdicts(tol, data, n):
    products = data.draw(measurement_products(n))
    table = _LabelClasses([(1, 1)] * n).table(products)
    counts = [sum(holds) for _, holds in table]
    ops = [reduce(lambda a, b: a @ b, map(build_projector, p), Operator.identity(n))
           for p in products]
    # without weights a class weighs its size: the classes cover every label once
    assert sum(size for size, _ in table) == 2**n
    assert sum(size * count for (size, _), count in zip(table, counts)) == sum(
        op.diagonal().real.sum() for op in ops)
    assert resolves_identity(table, tol) == is_resolution_of_identity(ops, tol)
    assert sum_is_projector(counts, tol) == is_projector(sum(ops[1:], start=ops[0]), tol)
    first = [holds[0] for _, holds in table]
    assert sum_is_projector(first, tol) == is_projector(ops[0], tol)


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
    """``outcome`` of a reference expression in Operator arithmetic; a norm of its
    arrays may warn of an overflowing magnitude, which is not what is compared."""
    with np.errstate(over="ignore", invalid="ignore"):
        return outcome(call)


def overflow_refused(norm):
    """``norm()``, the max-entry norm a structural check forms in Operator
    arithmetic, with an operator it computes that is not finite refused as the
    checks refuse their own overflow."""
    try:
        return norm()
    except InvalidAmplitudesError:
        raise InvalidAmplitudesError("structural check overflows the float range") from None


def resolution_by_arithmetic(ops, tol):
    total = sum(ops[1:], start=ops[0])
    return (all(overflow_refused(lambda: (op - op.dagger()).max_entry()) <= tol
                and overflow_refused(lambda: (op @ op - op).max_entry()) <= tol for op in ops)
            and all(overflow_refused(lambda: (a @ b).max_entry()) <= tol
                    and overflow_refused(lambda: (b @ a).max_entry()) <= tol
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
    hermitian_norm = lambda: overflow_refused(lambda: (a - a.dagger()).max_entry())
    defect = lambda: overflow_refused(lambda: (a @ a - a).max_entry())
    assert outcome(lambda: is_hermitian(a, tol)) == by_arithmetic(lambda: hermitian_norm() <= tol)
    assert outcome(lambda: idempotency_defect(a)) == by_arithmetic(defect)
    assert outcome(lambda: is_projector(a, tol)) == by_arithmetic(
        lambda: hermitian_norm() <= tol and defect() <= tol)
    assert outcome(lambda: are_orthogonal(a, b, tol)) == by_arithmetic(
        lambda: overflow_refused(lambda: (a @ b).max_entry()) <= tol
        and overflow_refused(lambda: (b @ a).max_entry()) <= tol)
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


# label classes against the operator route ------------------------------------------

CLASS_TOLS = [-1.0, 1e-300, 1e-12, 0.5, 1.0, 2.0]


def class_specs(n):
    """Specs of every kind, all_same as often as all others together: only it
    splits the untouched particles into all L, all R and mixed."""
    if n == 1:
        return st.sampled_from(specs_on(1))
    return st.one_of(st.just(ProjectorSpec.all_same(n)), st.sampled_from(specs_on(n)))


def product_sets(n):
    """One to four products of 0-3 specs each."""
    return st.lists(st.lists(class_specs(n), max_size=3).map(tuple), min_size=1, max_size=4)


@st.composite
def near_orthogonal_states(draw, n):
    """Pre- and postselection factors; on one particle post may be orthogonal
    or nearly orthogonal to pre, so that <post|pre> is zero or small beside
    the weights it is summed from."""
    pre = draw(st.lists(single_states, min_size=n, max_size=n))
    post = draw(st.lists(single_states, min_size=n, max_size=n))
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        cL, cR = oracle.NAMED[pre[k]] if isinstance(pre[k], str) else pre[k]
        offset = draw(st.sampled_from([0.0, 1e-9, 1e-4, 0.1]))
        post[k] = (-cR.conjugate() + offset, cL.conjugate())
    return tuple(pre), tuple(post)


@pytest.mark.parametrize("n", range(1, 11))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_label_classes_give_the_operator_verdicts(n, data):
    tol = data.draw(st.sampled_from(CLASS_TOLS))
    products = data.draw(measurement_products(n) if n >= 2 and data.draw(st.booleans())
                         else product_sets(n))
    ops = [reduce(lambda a, b: a @ b, map(build_projector, p), Operator.identity(n))
           for p in products]
    table = _LabelClasses([(1, 1)] * n).table(products)
    counts = [sum(holds) for _, holds in table]
    assert resolves_identity(table, tol) == is_resolution_of_identity(ops, tol)
    assert sum_is_projector(counts, tol) == is_projector(sum(ops[1:], start=ops[0]), tol)

    # the weak-value-sum cross-check on classes never fails, and the query gives what
    # the operator route gives; a tolerance of 0.5 or more would refuse most overlaps
    # before the check
    tol = data.draw(st.sampled_from(CLASS_TOLS[:3]))
    pre_f, post_f = data.draw(near_orthogonal_states(n))
    record = run_scenario(Scenario("classes", n, pre_f, post_f,
                                   (WeakValueSumQuery(tuple(products)),)), tol).records[0]
    assert not (record.error or "").startswith("weak value linearity cross-check failed")
    sel = PrePostSelection(tensor([make_single_particle_state(f) for f in pre_f]),
                           tensor([make_single_particle_state(f) for f in post_f]))
    overlap = abs(sel.overlap())
    if overlap <= 1e-12 or abs(overlap - tol) <= 1e-12 * overlap:
        return  # the routes round <post|pre> apart, so a refusal at 0 or at tol may differ
    try:
        expected = weak_value_sum(sel, ops, tol)
    except TwoBoxError as exc:
        assert record.error == str(exc)
    else:
        assert record.error is None
        assert abs(record.results[-1].value - expected) <= 1e-12 * (
            abs(expected) + len(products)) / overlap


@pytest.mark.parametrize("n", range(1, 11))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_class_counts_and_shared_classes_give_the_same_verdicts_and_bits(n, data):
    """A set of 0/1 products judged complete from how many products hold on
    each class gets the verdict of the class check on its 0/1 columns, and
    tables and amplitudes that read their classes from partitions an object
    has already walked are those formed afresh."""
    tol = data.draw(st.sampled_from(CLASS_TOLS + [-0.0, math.inf]))
    products = data.draw(measurement_products(n) if n >= 2 and data.draw(st.booleans())
                         else product_sets(n))
    table = _LabelClasses([(1, 1)] * n).table(products)
    counts = [sum(holds) for _, holds in table]
    assert _counts_resolve_identity(counts, tol) == resolves_identity(table, tol)

    pre_f, post_f = data.draw(near_orthogonal_states(n))
    pre, post = [_single_pair(f) for f in pre_f], [_single_pair(f) for f in post_f]
    fresh = lambda: _LabelClasses.between(pre, post)
    fresh_table = repr(fresh().table(products))
    fresh_amplitudes = [repr(fresh().amplitude(p)) for p in products]
    for table_first in (True, False):  # the set's classes walked before its products' or after
        shared = fresh()
        for _ in range(2):  # the second round finds every partition walked
            if table_first:
                assert repr(shared.table(products)) == fresh_table
            assert [repr(shared.amplitude(p)) for p in products] == fresh_amplitudes
            assert repr(shared.table(products)) == fresh_table


@st.composite
def single_spec_sets(draw, n):
    """One-spec products that often form a complete measurement, with a member
    dropped, doubled or added, or one to four drawn at random."""
    i, j = (draw(st.permutations(range(1, n + 1)))[:2] if n >= 2 else (1, None))
    choices = [[ProjectorSpec.box_occupation(i, b, n) for b in "LR"]]
    if n >= 2:
        choices.append([ProjectorSpec.pair_same(i, j, n), ProjectorSpec.pair_diff(i, j, n)])
    if n == 3:
        choices.append([ProjectorSpec.sd(1, 2, 3, 3), ProjectorSpec.sd(2, 3, 1, 3),
                        ProjectorSpec.sd(3, 1, 2, 3), ProjectorSpec.all_same(3)])
    specs = list(draw(st.sampled_from(choices)))
    change = draw(st.sampled_from(["none", "drop", "double", "add", "random"]))
    if change == "drop":
        specs.pop()
    elif change == "double":
        specs.append(specs[0])
    elif change == "add":
        specs.append(draw(class_specs(n)))
    elif change == "random":
        specs = draw(st.lists(class_specs(n), min_size=1, max_size=4))
    return specs


@pytest.mark.parametrize("n", range(1, 11))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_queries_and_predicates_agree_on_completeness_and_projector_sums(n, data):
    """A measurement set is refused as incomplete exactly when the
    ``resolution_of_identity`` predicate on its specs reads false, and a
    ``detailed_vs_global`` question is refused exactly when ``is_projector`` of
    the summed members reads false."""
    tol = data.draw(st.sampled_from(CLASS_TOLS))
    specs = data.draw(single_spec_sets(n))
    pre_f = data.draw(st.lists(single_states, min_size=n, max_size=n))
    post_f = data.draw(st.lists(single_states, min_size=n, max_size=n))
    products = tuple((spec,) for spec in specs)
    queries = (
        AblProbabilitiesQuery(products),
        PredicateQuery("resolution_of_identity",
                       tuple(HamiltonianSpec.of([(1, spec)]) for spec in specs)),
        DetailedVsGlobalQuery(products),
        PredicateQuery("is_projector", (HamiltonianSpec.of([(1, spec) for spec in specs]),)),
    )
    abl, resolution, members, summed = run_scenario(
        Scenario("agree", n, tuple(pre_f), tuple(post_f), queries), tol).records
    assert (abl.error == "incomplete measurement") == (not resolution.results[0].value)
    is_projector_sum = summed.results[0].value
    if tol >= 0:
        assert (members.error == "not a legitimate question") == (not is_projector_sum)
    else:  # a negative tolerance refuses every member before the sum is asked about
        assert members.error == "non-projector member" and not is_projector_sum


def hamiltonians(n, coefficients):
    return st.lists(st.tuples(coefficients, class_specs(n)), max_size=3).map(
        lambda terms: HamiltonianSpec.of(terms, n))


def spec_check_outcomes(hamiltonians, tol, by_classes):
    """``outcome`` of every structural check of the sums: on their label classes
    (as predicate queries and ``twobox check`` run them) or on the built
    operators."""
    try:
        if by_classes:
            diagonals = _class_diagonals(hamiltonians)
            hermitian = lambda k, tol: _is_hermitian(diagonals[k], tol)
            defect = lambda k: _idempotency_defect(diagonals[k])
            orthogonal = lambda i, j, tol: _are_orthogonal(diagonals[i], diagonals[j], tol)
            resolution = lambda: _resolves_identity(diagonals, tol)
        else:
            ops = [build_hamiltonian(h) for h in hamiltonians]
            hermitian = lambda k, tol: is_hermitian(ops[k], tol)
            defect = lambda k: idempotency_defect(ops[k])
            orthogonal = lambda i, j, tol: are_orthogonal(ops[i], ops[j], tol)
            resolution = lambda: is_resolution_of_identity(ops, tol)
    except TwoBoxError as exc:
        return [(type(exc), str(exc))]
    count = len(hamiltonians)
    return ([outcome(lambda: hermitian(k, tol)) for k in range(count)]
            + [outcome(lambda: defect(k)) for k in range(count)]
            + [outcome(lambda: orthogonal(i, j, tol))
               for i in range(count) for j in range(i + 1, count)]
            + [outcome(resolution)])


# complex coefficients stay moderate: near the float range, numpy's fused complex
# product can stay finite where Python's overflows
COMPLEX_COEFFICIENTS = st.builds(complex, st.floats(-4, 4), st.floats(-4, 4))


@pytest.mark.parametrize("n", range(1, 11))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_spec_checks_on_label_classes_match_the_built_operators(n, data):
    tol = data.draw(st.sampled_from(CLASS_TOLS))
    real = data.draw(st.booleans())
    coefficients = (st.one_of(FLOATS, st.sampled_from([math.inf, -math.inf])) if real
                    else COMPLEX_COEFFICIENTS)
    sums = data.draw(st.lists(hamiltonians(n, coefficients), min_size=1, max_size=3))
    by_classes = spec_check_outcomes(sums, tol, True)
    by_operators = spec_check_outcomes(sums, tol, False)
    if real:  # the same bits, or the same error
        assert by_classes == by_operators
        return
    # numpy's complex product may be fused and Python's is not: the last bits may differ
    assert len(by_classes) == len(by_operators)
    for ours, theirs in zip(by_classes, by_operators):
        assert ours[0] == theirs[0]
        if ours[0] is float:
            v, w = float(ours[1]), float(theirs[1])
            assert abs(v - w) <= 1e-15 * max(1.0, abs(w))
        else:
            assert ours == theirs


@st.composite
def eigenstate_cases(draw, n):
    """A weighted sum, an eigenvalue on its diagonal or off it, and a state:
    a product of one-particle states, or all 2**n amplitudes, nonzero on one
    eigenspace of the sum only or anywhere."""
    # coefficients up to the float range and beyond; as no amplitude part exceeds 1,
    # no part of a product does either, so a fused product overflows where Python's does
    coefficients = draw(st.sampled_from([
        st.one_of(FLOATS, st.sampled_from([math.inf, -math.inf])),
        st.one_of(COMPLEX_COEFFICIENTS, st.builds(complex, HUGE, HUGE))]))
    h = draw(hamiltonians(n, coefficients))
    try:
        diagonal = [complex(e) for e in build_hamiltonian(h).diagonal()]
    except TwoBoxError:  # a refused sum: any eigenvalue, any state
        diagonal = [0j] * 2**n
    eigenvalue = draw(st.one_of(st.sampled_from(diagonal), coefficients,
                                st.sampled_from([math.inf, 2.0, 1j])))
    if draw(st.booleans()):
        return h, eigenvalue, draw(st.lists(single_states, min_size=n, max_size=n)), None
    rng = random.Random(draw(st.integers(0, 2**32)))
    support = ([b for b, e in enumerate(diagonal) if e == eigenvalue] if draw(st.booleans())
               else range(2**n)) or [0]
    values = [0j] * 2**n
    for b in support:
        values[b] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1) if rng.random() < 0.5 else 0)
    scale = math.sqrt(math.fsum(map(oracle.abs2, values))) or 1.0
    return h, eigenvalue, None, [v / scale for v in values]


def compare_eigenstate_residuals(h, eigenvalue, factors, values):
    """Assert that the label-class residual of ``h`` on the state matches the
    built operator's residual, and return whether their verdicts were compared:
    they are where both residuals lie farther than the rounding bound from the
    tolerance, as README allows verdicts to differ within rounding of it."""

    def by_classes():
        _class_diagonals([h])  # refuses a diagonal that is not finite, as a predicate does
        amplitudes = (_product_amplitudes([_single_pair(f) for f in factors])
                      if values is None else _explicit_amplitudes(values))
        return _eigenstate_residual(h, amplitudes, eigenvalue)

    def by_operator():
        op = build_hamiltonian(h)
        ket = (tensor([make_single_particle_state(f) for f in factors])
               if values is None else Ket(values))
        return eigenstate_residual(op, ket, eigenvalue)

    ours, theirs = outcome(by_classes), outcome(by_operator)
    if theirs[0] is not float:  # the same refusal, word for word
        assert ours == theirs
        return True
    assert ours[0] is float
    v, w = float(ours[1]), float(theirs[1])
    if not math.isfinite(w):
        assert ours == theirs
        return True
    # the norm is summed exactly on one side, and complex products may be fused on the other
    entries = [*build_hamiltonian(h).diagonal(), complex(eigenvalue)]
    bound = 1e-14 * max(1.0, *(abs(x) for z in entries for x in (z.real, z.imag)))
    assert abs(v - w) <= bound
    if min(abs(v - DEFAULT_TOLERANCE), abs(w - DEFAULT_TOLERANCE)) <= bound:
        return False
    assert (v <= DEFAULT_TOLERANCE) == (w <= DEFAULT_TOLERANCE)
    return True


@pytest.mark.parametrize("n", range(1, 11))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_eigenstate_residual_on_label_classes_matches_the_built_operator(n, data):
    compare_eigenstate_residuals(*data.draw(eigenstate_cases(n)))


def test_eigenstate_residuals_at_the_tolerance_may_give_either_verdict():
    # the residuals read 1.0000000000000002e-12 on label classes and 9.999999999999998e-13
    # on the built operator: either side of the tolerance, within rounding of it
    factors = ["+", (0j, 0.5 + 0.24519626935807737j), (0j, 0.5 + 0.2421875j)]
    assert compare_eigenstate_residuals(HamiltonianSpec((), 3), 1e-12, factors, None) is False


def test_an_eigenvalue_that_is_not_finite_is_refused_on_both_routes():
    # on this draw Python's product gives the third amplitude a real part of 0.0 and
    # numpy's gives -2.29e-19, so an infinite eigenvalue read NaN on one route, -inf on the other
    h = HamiltonianSpec((), 2)
    factors = ((1, 0.5 + 0.5j), (0.5 + 0.5j, 1 + 2.2e-309j))
    amplitudes = _product_amplitudes([_single_pair(f) for f in factors])
    op, ket = build_hamiltonian(h), tensor([make_single_particle_state(f) for f in factors])
    for eigenvalue in (math.inf, complex(1, -math.inf), math.nan):
        for call in (lambda: _eigenstate_residual(h, amplitudes, eigenvalue),
                     lambda: eigenstate_residual(op, ket, eigenvalue),
                     lambda: is_eigenstate(op, ket, eigenvalue)):
            with pytest.raises(InvalidArgumentError, match="^eigenvalue must be finite$"):
                call()
        query = PredicateQuery("eigenstate", (h,), state=ProductState(factors),
                               eigenvalue=eigenvalue)
        record = run_scenario(Scenario("x", 2, ("+", "+"), ("+", "+"), (query,))).records[0]
        assert (record.results, record.error) == ((), "eigenvalue must be finite")


def test_the_projector_verdict_forms_no_defect_of_a_diagonal_that_is_not_hermitian():
    # the square of 1e200j overflows, so its defect is refused; the verdict needs none
    d = [1e200j, 1 + 0j]
    with pytest.raises(InvalidAmplitudesError, match="^structural check overflows the float range$"):
        _idempotency_defect(d)
    assert _is_projector(d, 1e-12) is False
    assert _resolves_identity([d, [0j, 0j]], 1e-12) is False
    ops = [Operator.from_diagonal(d), Operator.from_diagonal([0, 0])]
    assert is_resolution_of_identity(ops, 1e-12) is False
    box_l, box_r = ProjectorSpec.box_occupation(1, "L", 1), ProjectorSpec.box_occupation(1, "R", 1)
    query = PredicateQuery("is_projector", (HamiltonianSpec.of([(d[0], box_l), (d[1], box_r)]),))
    with pytest.raises(InvalidAmplitudesError, match="^structural check overflows the float range$"):
        list(query.results(None, 1e-12))  # a report names the defect, so it forms it


@pytest.mark.parametrize("by_classes, built, diagonals", [
    (lambda d: _is_hermitian(d, 1e-12), is_hermitian, ([1e308j, 0j],)),  # z - conj(z) is 2e308i
    (_idempotency_defect, idempotency_defect, ([1e200 + 0j, 0j],)),  # z * z is 1e400
    (lambda a, b: _are_orthogonal(a, b, 1e-12), are_orthogonal,
     ([1e200 + 0j, 0j], [1e200 + 0j, 1 + 0j])),
], ids=["hermitian", "idempotency_defect", "orthogonal"])
def test_a_check_that_overflows_is_refused_in_the_same_words_on_both_routes(by_classes, built,
                                                                            diagonals):
    # every entry is finite; only the check's own arithmetic leaves the float range
    message = "^structural check overflows the float range$"
    with pytest.raises(InvalidAmplitudesError, match=message):
        by_classes(*diagonals)
    with pytest.raises(InvalidAmplitudesError, match=message):
        built(*map(Operator.from_diagonal, diagonals))


@pytest.mark.parametrize("tol", [np.float64(1e-12), np.float32(1e-12), np.int64(0)])
def test_every_verdict_is_a_bool_whatever_real_the_tolerance_is(tol):
    one = Operator.identity(1)
    verdicts = [vanishes(0j, tol), is_hermitian(one, tol), is_projector(one, tol),
                are_orthogonal(one, one, tol), is_resolution_of_identity([one], tol),
                is_eigenstate(one, make_single_particle_state("+"), 1, tol)]
    assert [type(v) for v in verdicts] == [bool] * 6
    assert verdicts == [True, True, True, False, True, True]


# the (mask, allowed) patterns against the list route they replaced -------------------
#
# Below is the label-class route as it was written before the patterns: per-step
# lists of (index, weight) pairs, one bit test per spec and class. The pattern
# route must give the same bits, sign of zero included, as every report value is
# formed from them.

def reference_holds(spec, index, n):
    if spec.kind == "all_same":
        return (index == 0) | (index == 2**n - 1)
    if spec.kind == "box":
        return (index >> (n - spec.particle)) & 1 == "LR".index(spec.box)
    i, j = spec.pair
    bit_i, bit_j = (index >> (n - i)) & 1, (index >> (n - j)) & 1
    if spec.kind == "pair_same":
        return bit_i == bit_j
    if spec.kind == "pair_diff":
        return bit_i != bit_j
    return (bit_i == bit_j) & ((index >> (n - spec.other)) & 1 != bit_i)


def reference_label_classes(specs, n, weights=None):
    touched = {k for spec in specs
               for k in (spec.particle, spec.other, *(spec.pair or ())) if k is not None}
    split = len(touched) < n and "all_same" in [spec.kind for spec in specs]
    classes = [(0, 1)]
    left = right = rest = 1
    for k, (c_left, c_right) in enumerate(weights or [(1, 1)] * n, start=1):
        if k in touched:
            bit = 1 << (n - k)
            classes = ([(index, w * c_left) for index, w in classes]
                       + [(index | bit, w * c_right) for index, w in classes])
        else:
            rest *= c_left + c_right
            if split:
                left, right = left * c_left, right * c_right
    if not split:
        return [(index, w * rest) for index, w in classes]
    untouched = [1 << (n - k) for k in range(1, n + 1) if k not in touched]
    splits = [(0, left), (sum(untouched), right)]
    if len(untouched) >= 2:
        splits.append((untouched[0], rest - left - right))
    return [(index | bits, w * v) for index, w in classes for bits, v in splits]


def reference_product_amplitude(product, weights):
    n = len(weights)
    classes = reference_label_classes(product, n, weights)
    for spec in product:
        classes = [(index, w) for index, w in classes if reference_holds(spec, index, n)]
    return sum([w for _, w in classes], 0j)


def reference_product_table(products, n, weights=None):
    return [(w, [all(reference_holds(spec, index, n) for spec in product) for product in products])
            for index, w in reference_label_classes([spec for p in products for spec in p], n,
                                                    weights)]


def reference_entry(terms, index, n):
    total = 0j
    for coeff, proj in terms:
        total += (1 + 0j if reference_holds(proj, index, n) else 0j) * coeff
    return total


def reference_class_diagonals(hamiltonians):
    n = hamiltonians[0].n_particles
    classes = reference_label_classes([proj for h in hamiltonians for _, proj in h.terms], n)
    diagonals = []
    for h in hamiltonians:
        entries = [reference_entry(h.terms, index, n) for index, _ in classes]
        _check_entries(entries)
        diagonals.append(entries)
    return diagonals


@pytest.mark.parametrize("n", range(1, 11))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_patterns_give_the_list_route_bit_for_bit(n, data):
    pre_f, post_f = data.draw(near_orthogonal_states(n))
    classes = _LabelClasses.between([_single_pair(f) for f in pre_f],
                                    [_single_pair(f) for f in post_f])
    weights = classes.weights
    products = data.draw(product_sets(n))
    for product in products:
        assert repr(classes.amplitude(product)) == repr(
            reference_product_amplitude(product, weights))
    assert repr(_LabelClasses([(1, 1)] * n).table(products)) == repr(
        reference_product_table(products, n))
    assert repr(classes.table(products)) == repr(
        reference_product_table(products, n, weights))

    coefficients = st.one_of(FLOATS, COMPLEX_COEFFICIENTS, st.builds(complex, HUGE, HUGE),
                             st.sampled_from([math.inf, -math.inf]))
    sums = data.draw(st.lists(hamiltonians(n, coefficients), min_size=1, max_size=3))
    assert outcome(lambda: _class_diagonals(sums)) == outcome(
        lambda: reference_class_diagonals(sums))
    if n <= 8:  # the entry of every label, as an eigenstate residual reads them
        terms = sums[0].terms
        assert repr(_entries(terms, range(2**n))) == repr(
            [reference_entry(terms, index, n) for index in range(2**n)])


@st.composite
def long_products(draw, n):
    """A product of 4 to max(4, n - 1) specs, all_same among them as often as
    not (``class_specs``), and as often as not a spec repeated or a
    contradictory pair: one pair both in one box and not, or one particle in
    both boxes."""
    size = draw(st.integers(4, max(4, n - 1)))
    product = draw(st.lists(class_specs(n), min_size=size, max_size=size))
    if draw(st.booleans()):
        product[0] = draw(st.sampled_from(product[1:]))
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        product[-2:] = draw(st.sampled_from([
            [ProjectorSpec.pair_same(i, j, n), ProjectorSpec.pair_diff(i, j, n)],
            [ProjectorSpec.box_occupation(i, "L", n), ProjectorSpec.box_occupation(i, "R", n)]]))
    return tuple(draw(st.permutations(product)))


@pytest.mark.parametrize("n", range(4, 9))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_long_products_give_the_list_route_bit_for_bit(n, data):
    pre_f, post_f = data.draw(near_orthogonal_states(n))
    classes = _LabelClasses.between([_single_pair(f) for f in pre_f],
                                    [_single_pair(f) for f in post_f])
    products = data.draw(st.lists(long_products(n), min_size=1, max_size=3))
    for product in products:
        assert repr(classes.amplitude(product)) == repr(
            reference_product_amplitude(product, classes.weights))
    assert repr(_LabelClasses([(1, 1)] * n).table(products)) == repr(
        reference_product_table(products, n))
    assert repr(classes.table(products)) == repr(
        reference_product_table(products, n, classes.weights))


def test_amplitudes_tables_and_class_entries_read_one_column(monkeypatch):
    same, box = ProjectorSpec.pair_same(1, 2, 3), ProjectorSpec.box_occupation(3, "R", 3)
    h = HamiltonianSpec.of([(2, same), (1, box)])
    classes = _LabelClasses([(1, 1)] * 3)
    asked = []
    column = projectors._column
    monkeypatch.setattr(projectors, "_column", lambda product, indices: asked.append(
        tuple(product)) or column(product, indices))

    def reached(ask):
        asked.clear()
        ask()
        return asked

    assert reached(lambda: classes.amplitude((same, box))) == [(same, box)]
    assert reached(lambda: classes.table([(same,), (box,)])) == [(same,), (box,)]
    assert reached(lambda: _class_diagonals([h])) == [(same,), (box,)]
    query = PredicateQuery("eigenstate", (h,), state=ProductState(("L", "L", "R")), eigenvalue=3)
    assert reached(lambda: list(query.results(None, 1e-12))) == [(same,), (box,)] * 2


@pytest.mark.parametrize("n", range(1, 9))
def test_built_projectors_hold_where_the_bit_tests_hold(n):
    for spec in specs_on(n):
        expected = reference_holds(spec, np.arange(2**n), n).astype(np.complex128)
        assert build_projector(spec).diagonal().tobytes() == expected.tobytes(), spec.label()

"""States, operators, and the elementary bracket operations."""

import math
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from twobox import (
    BOX_LABELS,
    DEFAULT_TOLERANCE,
    DimensionMismatchError,
    InvalidAmplitudesError,
    InvalidArgumentError,
    Ket,
    Operator,
    SPIN_LABELS,
    TwoBoxError,
    UnnormalizableStateError,
    UnnormalizedKet,
    abs2,
    apply,
    basis_state,
    canonical_state_name,
    inner,
    is_eigenstate,
    label_scheme,
    make_single_particle_state,
    matrix_element,
    tensor,
)
from twobox.hilbert import _NAMED_STATES, _explicit_amplitudes

TOL = 1e-12
S = 1 / math.sqrt(2)


def test_named_single_particle_states():
    for name, (cL, cR) in oracle.NAMED.items():
        ket = make_single_particle_state(name)
        assert abs(ket.amplitudes[0] - cL) <= TOL
        assert abs(ket.amplitudes[1] - cR) <= TOL
        assert abs(ket.norm() - 1.0) <= TOL


def test_long_and_short_state_names_agree():
    for short, long in [("+", "plus"), ("-", "minus"), ("+i", "plus_i"), ("-i", "minus_i")]:
        a = make_single_particle_state(short).amplitudes
        b = make_single_particle_state(long).amplitudes
        assert np.array_equal(a, b)
    assert canonical_state_name("+i") == "plus_i"
    with pytest.raises(ValueError, match="unknown state name"):
        canonical_state_name("sideways")


def test_explicit_pair_is_normalized():
    ket = make_single_particle_state((3, 4j))
    assert ket.amplitudes[0] == 0.6
    assert ket.amplitudes[1] == 0.8j


def test_zero_pair_is_rejected():
    with pytest.raises(UnnormalizableStateError, match="unnormalizable state"):
        make_single_particle_state((0, 0))


def test_ket_requires_unit_norm():
    with pytest.raises(InvalidAmplitudesError, match="not normalized"):
        Ket([1.0, 1.0])
    ket = Ket.normalized([1.0, 1.0])
    assert abs(ket.amplitudes[0] - S) <= TOL


def test_normalize_rejects_the_zero_vector():
    with pytest.raises(UnnormalizableStateError, match="unnormalizable state"):
        UnnormalizedKet([0, 0, 0, 0]).normalize()


def test_amplitude_validation():
    with pytest.raises(InvalidAmplitudesError, match="power of two"):
        Ket([1.0, 0.0, 0.0])
    with pytest.raises(InvalidAmplitudesError, match="finite"):
        Ket([np.nan, 0.0])
    with pytest.raises(InvalidAmplitudesError, match="one dimensional"):
        Ket([[1.0, 0.0]])


def test_states_are_immutable():
    ket = basis_state("LL")
    with pytest.raises(AttributeError):
        ket.amplitudes = None
    with pytest.raises(ValueError):
        ket.amplitudes[0] = 2.0


def test_basis_state_index_convention():
    # particle 1 is the most significant bit, L = 0, R = 1
    ket = basis_state("LRL")
    assert ket.amplitudes[0b010] == 1.0
    assert basis_state("RRR").amplitudes[7] == 1.0
    assert basis_state("L").amplitudes[0] == 1.0
    with pytest.raises(ValueError, match="not part of the box scheme"):
        basis_state("LX")


def test_label_schemes():
    assert BOX_LABELS.basis_label(2, 3) == "LRL"
    assert SPIN_LABELS.basis_label(2, 3) == "↑⇓↑"
    assert label_scheme("spin").state_display("plus_i") == "y,+"
    with pytest.raises(ValueError, match="basis index"):
        BOX_LABELS.basis_label(8, 3)
    with pytest.raises(ValueError, match="unknown label scheme"):
        label_scheme("color")


def test_tensor_of_plus_states_is_uniform():
    ket = tensor([make_single_particle_state("+")] * 3)
    expected = oracle.product_state(["+", "+", "+"])
    for index, lab in enumerate(oracle.labels(3)):
        assert abs(ket.amplitudes[index] - expected[lab]) <= TOL
    assert abs(ket.amplitudes[5] - 1 / (2 * math.sqrt(2))) <= TOL


def test_tensor_keeps_factor_order():
    ket = tensor([make_single_particle_state(n) for n in ("+i", "+i", "+i")])
    # LLR sits at index 1; only the R slot contributes the factor i
    assert abs(ket.amplitudes[1] - 1j / (2 * math.sqrt(2))) <= TOL
    mixed = tensor([basis_state("L"), basis_state("R")])
    assert mixed.amplitudes[0b01] == 1.0


def test_tensor_type_and_validation():
    kets = [make_single_particle_state("+"), make_single_particle_state("-")]
    assert isinstance(tensor(kets), Ket)
    raw = UnnormalizedKet([2.0, 0.0])
    assert isinstance(tensor([kets[0], raw]), UnnormalizedKet)
    with pytest.raises(ValueError, match="at least one"):
        tensor([])
    with pytest.raises(ValueError, match="mixed label schemes"):
        tensor([kets[0], kets[1].with_labels(SPIN_LABELS)])


def test_overlap_of_the_standard_selection():
    pre = tensor([make_single_particle_state("+")] * 3)
    post = tensor([make_single_particle_state("+i")] * 3)
    value = inner(post, pre)
    assert abs(value - (-(1 + 1j) / 4)) <= TOL
    o_pre = oracle.product_state(["+", "+", "+"])
    o_post = oracle.product_state(["+i", "+i", "+i"])
    assert abs(value - oracle.overlap(o_post, o_pre, 3)) <= TOL


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(20240811)
    for _ in range(25):
        a = UnnormalizedKet(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        b = UnnormalizedKet(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert abs(inner(a, b) - inner(b, a).conjugate()) <= 1e-10


def test_tensor_norm_is_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = UnnormalizedKet(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        b = UnnormalizedKet(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert abs(tensor([a, b]).norm() - a.norm() * b.norm()) <= 1e-10


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner(basis_state("L"), basis_state("LL"))


def test_apply_returns_an_unnormalized_state():
    out = apply(Operator.identity(1), basis_state("L"))
    assert isinstance(out, UnnormalizedKet)
    assert not isinstance(out, Ket)
    half = Operator(np.diag([1.0, 0.0]))
    projected = apply(half, make_single_particle_state("+"))
    assert abs(projected.norm() - S) <= TOL
    with pytest.raises(DimensionMismatchError):
        apply(Operator.identity(2), basis_state("L"))


def test_matrix_element_is_linear_in_the_ket():
    rng = np.random.default_rng(99)
    dim = 4
    for _ in range(20):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = Operator(m)
        bra = UnnormalizedKet(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        alpha, beta = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        lhs = matrix_element(bra, op, UnnormalizedKet(alpha * u + beta * v))
        rhs = (alpha * matrix_element(bra, op, UnnormalizedKet(u))
               + beta * matrix_element(bra, op, UnnormalizedKet(v)))
        assert abs(lhs - rhs) <= 1e-9


def test_operator_algebra():
    eye = Operator.identity(1)
    zero = Operator.zero(1)
    assert np.array_equal((eye + zero).entries, eye.entries)
    assert np.array_equal((eye - eye).entries, zero.entries)
    assert np.array_equal((2 * eye).entries, (eye * 2).entries)
    assert np.array_equal((-eye).entries, (eye * -1).entries)
    assert np.array_equal((eye @ eye).entries, eye.entries)
    with pytest.raises(DimensionMismatchError):
        eye + Operator.identity(2)
    for combine in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x @ y):
        with pytest.raises(TypeError):
            combine(eye, 1)
    with pytest.raises(ValueError, match="square"):
        Operator(np.zeros((2, 3)))
    with pytest.raises(AttributeError):
        eye.entries = None
    with pytest.raises(ValueError):
        eye.entries[0, 0] = 2.0


def test_diagonal_and_dense_forms_agree():
    diag = Operator.from_diagonal([1.0, 2j, 0.0, -1.0])
    dense = Operator(np.diag([1.0, 2j, 0.0, -1.0]))
    other = Operator(np.arange(16).reshape(4, 4))
    assert np.array_equal(diag.entries, dense.entries)
    assert np.array_equal(diag.diagonal(), dense.diagonal())
    assert diag.max_entry() == dense.max_entry() == 2.0
    for combine in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x @ y,
                    lambda x, y: y @ x, lambda x, y: 3 * x.dagger() - y):
        assert np.array_equal(combine(diag, other).entries, combine(dense, other).entries)
        assert np.array_equal(combine(diag, diag).entries, combine(dense, dense).entries)
    ket = UnnormalizedKet([1.0, 1.0, 1j, 2.0])
    assert np.array_equal(apply(diag, ket).amplitudes, apply(dense, ket).amplitudes)
    with pytest.raises(ValueError, match="power of two"):
        Operator.from_diagonal([1.0, 0.0, 1.0])


def test_operator_dagger():
    op = Operator([[0, 1j], [0, 0]])
    assert np.array_equal(op.dagger().entries, np.array([[0, 0], [-1j, 0]]))


def test_is_eigenstate_requires_a_normalized_ket():
    with pytest.raises(InvalidArgumentError, match="normalized Ket"):
        is_eigenstate(Operator.identity(1), UnnormalizedKet([2.0, 0.0]), 1.0)
    assert is_eigenstate(Operator.identity(2), basis_state("LR"), 1.0)
    assert not is_eigenstate(Operator.identity(2), basis_state("LR"), 0.0)


def test_abs2_stays_exact_for_dyadics():
    assert abs2(0.25 + 0.25j) == 0.125
    assert abs2(-(1 + 1j) / 8) == 1 / 32


def test_repr_is_compact():
    text = repr(tensor([make_single_particle_state("+")] * 3))
    assert text.startswith("Ket(")
    assert "..." in text  # eight terms, shown truncated
    assert repr(UnnormalizedKet([0.0, 0.0])) == "UnnormalizedKet(0)"
    assert repr(Operator.identity(1)) == "Operator(n_particles=1, labels='box')"


def test_default_tolerance_value():
    assert DEFAULT_TOLERANCE == 1e-12


def test_non_finite_coefficients_are_invalid_amplitudes():
    for pair in [(float("nan"), 0), (float("inf"), 1), (1e308, complex(0, float("inf")))]:
        with pytest.raises(InvalidAmplitudesError, match="coefficients must be finite"):
            make_single_particle_state(pair)


def test_finite_pairs_normalize_whatever_their_magnitude():
    # the squared norm of these overflows, underflows or is subnormal
    for pair, expected in [((1e308, 1e308), (S, S)), ((1e-200, 0), (1, 0)),
                           ((1e-170, 1e-170), (S, S)), ((-1e308j, 1e-300), (-1j, 0)),
                           ((1e-160, 0), (1, 0))]:
        ket = make_single_particle_state(pair)
        assert np.allclose(ket.amplitudes, expected, rtol=0, atol=1e-15)
    assert make_single_particle_state((1e-160, 0)).amplitudes.tolist() == [1, 0]


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.complex_numbers(max_magnitude=1e150, allow_nan=False),
                 st.complex_numbers(max_magnitude=1e150, allow_nan=False))
       .filter(lambda pair: abs2(pair[0]) + abs2(pair[1]) > 0))
def test_pairs_with_a_representable_squared_norm_keep_their_bits(pair):
    cL, cR = map(complex, pair)
    scale = math.sqrt(abs2(cL) + abs2(cR))
    try:
        expected = Ket([cL / scale, cR / scale]).amplitudes
    except InvalidAmplitudesError:  # a subnormal squared norm loses the normalization
        return
    assert make_single_particle_state(pair).amplitudes.tobytes() == expected.tobytes()


amplitude = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)


@st.composite
def factors(draw):
    """Kets and unnormalized kets of 1-3 particles each, at most 8 particles in all."""
    out, left = [], draw(st.integers(min_value=1, max_value=8))
    while left:
        n = draw(st.integers(min_value=1, max_value=min(3, left)))
        left -= n
        amps = draw(st.lists(amplitude, min_size=2**n, max_size=2**n)
                    .filter(lambda a: sum(map(abs2, a)) > 1e-3))
        out.append(Ket.normalized(amps) if draw(st.booleans()) else UnnormalizedKet(amps))
    return out


@settings(max_examples=80, deadline=None)
@given(factors())
def test_tensor_is_the_kron_chain_bit_for_bit(states):
    product = tensor(states)
    assert np.array_equal(product.amplitudes,
                          reduce(np.kron, (s.amplitudes for s in states)))
    assert isinstance(product, Ket) == all(isinstance(s, Ket) for s in states)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_results_are_still_refused():
    huge = Operator.from_diagonal([1e308, 1e308])
    with pytest.raises(InvalidAmplitudesError, match="operator diagonal must be finite"):
        huge + huge
    with pytest.raises(InvalidAmplitudesError, match="operator diagonal must be finite"):
        huge * 1e10
    dense = Operator(huge.entries)
    with pytest.raises(InvalidAmplitudesError, match="operator entries must be finite"):
        dense - (-1) * dense
    for op in (huge, dense):
        with pytest.raises(InvalidAmplitudesError, match="^amplitudes must be finite$"):
            matrix_element(basis_state("L"), op, UnnormalizedKet([10.0, 0.0]))
        with pytest.raises(InvalidAmplitudesError, match="^amplitudes must be finite$"):
            apply(op, UnnormalizedKet([10.0, 0.0]))
    with pytest.raises(DimensionMismatchError, match="state dimensions differ"):
        matrix_element(basis_state("LL"), huge, basis_state("L"))


def test_computed_values_are_read_only():
    diag = Operator.from_diagonal([1.0, 2j, 0.0, -1.0])
    dense = Operator(np.arange(16).reshape(4, 4))
    results = [diag.dagger(), diag.with_labels(SPIN_LABELS), -dense, dense.dagger()]
    for a, b in [(diag, diag), (diag, dense), (dense, dense)]:
        results += [a + b, a - b, a @ b, 2 * a, a * 1j]
    for op in results:
        assert not op._data.flags.writeable
    ket = UnnormalizedKet([1.0, 1.0, 1j, 2.0])
    images = [apply(diag, ket), apply(dense, ket), ket.with_labels(SPIN_LABELS),
              *(make_single_particle_state(name) for name in _NAMED_STATES)]
    for vec in images:
        with pytest.raises(ValueError):
            vec.amplitudes[0] = 0.0
    assert make_single_particle_state("+") is make_single_particle_state("plus")


# entries of an amplitude vector: numbers of every kind and size, numeric and other
# strings, and ints beyond the float range
ENTRIES = st.one_of(
    st.floats(), st.complex_numbers(), st.sampled_from([0.0, -0.0, 1.0, S, 1e308, -1.7e308]),
    st.integers(-2, 2), st.just(10**400), st.booleans(),
    st.sampled_from(["1", " 0.5 ", "(1+2j)", "nan", "1e999", "a", ""]))


@st.composite
def amplitude_vectors(draw):
    """Vectors Ket accepts, ones a little off the unit norm, anything of a few entries,
    and collections of other shapes: unordered, a matrix, a ragged nesting, too long."""
    kind = draw(st.sampled_from(["unit", "entries", "other"]))
    if kind == "entries":
        return draw(st.lists(ENTRIES, max_size=9).map(draw(st.sampled_from([list, tuple]))))
    if kind == "other":
        return draw(st.sampled_from([
            {1: 0, 0: 1}, {0, 1}, range(2), [[1, 0], [0, 1]], [[1, 0], [0]], np.array([S, -S * 1j]),
            np.eye(2), [2**-6.5] * 2**13, [1e154] * 4, [1e155] * 8]))
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    values = [complex(rng.gauss(0, 1), rng.gauss(0, 1) if rng.random() < 0.5 else 0)
              for _ in range(2**n)]
    scale = math.sqrt(math.fsum(map(abs2, values)))
    factor = 1 + draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, -1e-11, 0.5]))
    return [v / scale * factor for v in values]


def refusal_or_amplitudes(call):
    """The amplitudes ``call`` returns, or the type and message of its TwoBoxError;
    each with the squared norm in a normalization refusal, else None."""
    try:
        return "accepted", tuple(map(complex, call())), None
    except TwoBoxError as exc:
        message, _, norm_sq = str(exc).partition(" (squared norm ")
        return type(exc), message, float(norm_sq[:-1]) if norm_sq else None


@settings(max_examples=300, deadline=None)
@given(amplitude_vectors())
def test_explicit_amplitudes_are_refused_as_a_ket_refuses_them(values):
    ours = refusal_or_amplitudes(lambda: _explicit_amplitudes(values))
    theirs = refusal_or_amplitudes(lambda: Ket(values).amplitudes)
    assert ours[:2] == theirs[:2]
    if theirs[2] is not None:  # one is summed exactly, the other as numpy sums it
        assert ours[2] == pytest.approx(theirs[2], rel=1e-14)

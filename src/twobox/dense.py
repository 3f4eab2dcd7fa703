"""The dense reference layer: states, operators and the engine on numpy arrays.

It holds ``Ket``, ``UnnormalizedKet``, ``Operator`` and the functions on them
(``tensor``, ``inner``, ``apply``, ``matrix_element``, the eigenstate test);
``build_projector``, ``build_hamiltonian`` and the structural checks of built
operators; and the engine on built operators (``PrePostSelection``,
``MeasurementSet`` and the seven functions from ``abl_amplitude`` to
``transition_element``). This is the library API on arrays and the reference
the label-class route is tested against. No command and no scenario run loads
this module, nor numpy with it: ``twobox.X`` and the module that held a name
before (``twobox.hilbert.Ket``, ``twobox.engine.MeasurementSet``, ...) import
it on the first access to one of its names.

An operator is stored as its diagonal when built as one (every correlation
projector is) and as a dense matrix when given as one, in double precision and
immutable. A caller's amplitudes or entries are copied and checked in full:
shape, a power-of-two size, the ``MAX_PARTICLES`` limit and finiteness. A
result computed from checked values keeps shape and size by construction, so
it is only checked for finiteness, which overflow can lose, and made
read-only. The structural checks and ``build_hamiltonian`` are their
definitions in Operator arithmetic (``(op @ op - op).max_entry()``, the zero
operator plus each ``coeff * build_projector(proj)`` in term order; a check
refuses an operator it forms that is not finite as its own overflow), and the
engine goes through the rules :mod:`twobox.engine` writes once over amplitudes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cache, reduce, wraps
from typing import Union

import numpy as np

from .engine import AblResult, _abl_result, _linearity_checked, _sum_abs2, _weak_denominator
from .errors import (DimensionMismatchError, IllegitimateQuestionError, IncompleteMeasurementError,
                     InvalidAmplitudesError, InvalidArgumentError, NotAProjectorError,
                     UnnormalizableStateError, expect, expect_tolerance)
from .hilbert import (_NAMED_STATES, BOX_LABELS, DEFAULT_TOLERANCE, MAX_PARTICLES, SPIN_LABELS,
                      LabelScheme, _check_particle_count, _Record, _single_pair, abs2,
                      canonical_state_name)
from .projectors import (_CHECK_OVERFLOW, HamiltonianSpec, ProjectorSpec, _finite_eigenvalue,
                         _pattern)


def _scheme(labels) -> LabelScheme:
    """A labels argument: a LabelScheme, anything else refused."""
    return expect(labels, LabelScheme, "a LabelScheme")


def _as_array(values, ndim: int, what: str) -> np.ndarray:
    """A read-only complex vector or square matrix of side 2**n, n <= MAX_PARTICLES."""
    try:
        arr = np.array(values, dtype=np.complex128, copy=True)
    except (TypeError, ValueError, OverflowError):  # non-numbers, a ragged nesting, huge ints
        raise InvalidAmplitudesError(f"{what} must be an array of numbers") from None
    if arr.ndim != ndim or len(set(arr.shape)) != 1:
        shape = "a one dimensional sequence" if ndim == 1 else "a square matrix"
        raise InvalidAmplitudesError(f"{what} must form {shape}")
    dim = arr.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise InvalidAmplitudesError(f"{what} dimension {dim} is not a power of two >= 2")
    if n > MAX_PARTICLES:
        raise InvalidAmplitudesError(
            f"{n} particles exceeds the supported maximum of {MAX_PARTICLES}")
    if not np.all(np.isfinite(arr)):
        raise InvalidAmplitudesError(f"{what} must be finite")
    arr.setflags(write=False)
    return arr


def _quiet(fn):
    """``fn`` with numpy's overflow and invalid warnings off, for arithmetic whose
    result ``_computed`` checks or, for a norm, reads inf."""
    @wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)
    return quiet


def _computed(arr: np.ndarray, what: str) -> np.ndarray:
    """A result computed from checked arrays, made read-only in place; only
    finiteness can have been lost on the way."""
    if not np.isfinite(arr).all():
        raise InvalidAmplitudesError(f"{what} must be finite")
    arr.setflags(write=False)
    return arr


def _operand_arrays(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stored arrays of two operators in one form for ``Operator``
    arithmetic: both diagonals when both are diagonal, else both dense matrices."""
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(f"operator dimensions differ: {a.shape[0]} vs {b.shape[0]}")
    if a.ndim == b.ndim == 1:
        return a, b
    return (a if a.ndim == 2 else np.diag(a)), (b if b.ndim == 2 else np.diag(b))


class _Vector:
    """Shared plumbing for the normalized and unnormalized state kinds."""

    __slots__ = ("_amplitudes", "_labels")

    def __init__(self, amplitudes: Sequence[complex], labels: LabelScheme = BOX_LABELS):
        object.__setattr__(self, "_amplitudes", _as_array(amplitudes, 1, "amplitudes"))
        object.__setattr__(self, "_labels", _scheme(labels))

    @classmethod
    def _of(cls, amplitudes: np.ndarray, labels: LabelScheme):
        # a vector the library computed from checked values
        vec = cls.__new__(cls)
        object.__setattr__(vec, "_amplitudes", _computed(amplitudes, "amplitudes"))
        object.__setattr__(vec, "_labels", labels)
        return vec

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    @property
    def labels(self) -> LabelScheme:
        return self._labels

    @property
    def dim(self) -> int:
        return self._amplitudes.shape[0]

    @property
    def n_particles(self) -> int:
        return self.dim.bit_length() - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self._amplitudes))

    def basis_labels(self) -> list[str]:
        n = self.n_particles
        return [self._labels.basis_label(i, n) for i in range(self.dim)]

    def with_labels(self, labels: LabelScheme) -> "_Vector":
        return type(self)._of(self._amplitudes, _scheme(labels))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copied and unpickled through the public constructor, which checks again
        return type(self), (self._amplitudes, self._labels)

    def __repr__(self) -> str:
        terms = []
        for i, a in enumerate(self._amplitudes):
            if a == 0:
                continue
            terms.append(f"({complex(a):.5g})|{self._labels.basis_label(i, self.n_particles)}>")
            if len(terms) == 4:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"{type(self).__name__}({body})"


class Ket(_Vector):
    """A normalized n-particle state vector.

    Parameters
    ----------
    amplitudes : sequence of complex
        2**n basis amplitudes in label order; the squared norm must be
        1 within 1e-12. Use :meth:`Ket.normalized` to scale first.
    labels : LabelScheme, optional
        Presentation scheme, box letters by default.
    """

    __slots__ = ()

    def __init__(self, amplitudes, labels: LabelScheme = BOX_LABELS):
        super().__init__(amplitudes, labels)
        parts = self._amplitudes.view(np.float64)  # no cross terms, which can make inf - inf
        with np.errstate(over="ignore"):
            norm_sq = float(np.dot(parts, parts))
        if abs(norm_sq - 1.0) > DEFAULT_TOLERANCE:
            raise InvalidAmplitudesError(
                f"state vector is not normalized (squared norm {norm_sq!r})")

    @classmethod
    def normalized(cls, amplitudes, labels: LabelScheme = BOX_LABELS) -> "Ket":
        """Scale arbitrary amplitudes to a unit state; zero input is rejected."""
        return UnnormalizedKet(amplitudes, labels).normalize()


class UnnormalizedKet(_Vector):
    """A state-shaped vector with no normalization requirement.

    This is what :func:`apply` returns, so projected states are never
    silently rescaled.
    """

    __slots__ = ()

    def normalize(self) -> Ket:
        n = self.norm()
        if n <= DEFAULT_TOLERANCE:
            raise UnnormalizableStateError("unnormalizable state")
        return Ket(self._amplitudes / n, self._labels)


KetLike = Union[Ket, UnnormalizedKet]


class Operator:
    """A linear operator on the n-particle space, stored as a dense matrix, or
    as its diagonal when built by :meth:`from_diagonal`. Arithmetic among
    diagonal operators stays on the diagonal."""

    __slots__ = ("_data", "_labels")

    def __init__(self, entries, labels: LabelScheme = BOX_LABELS):
        object.__setattr__(self, "_data", _as_array(entries, 2, "operator entries"))
        object.__setattr__(self, "_labels", _scheme(labels))

    @classmethod
    def from_diagonal(cls, diagonal, labels: LabelScheme = BOX_LABELS) -> "Operator":
        """The operator with this diagonal and zeros elsewhere, stored as the diagonal."""
        return cls._of(_as_array(diagonal, 1, "operator diagonal"), _scheme(labels))

    @classmethod
    def _of(cls, data: np.ndarray, labels: LabelScheme) -> "Operator":
        # a diagonal (1-D) or dense (2-D) array the library computed, in the form it has
        op = cls.__new__(cls)
        what = "operator diagonal" if data.ndim == 1 else "operator entries"
        object.__setattr__(op, "_data", _computed(data, what))
        object.__setattr__(op, "_labels", labels)
        return op

    @classmethod
    def identity(cls, n_particles: int, labels: LabelScheme = BOX_LABELS) -> "Operator":
        _check_particle_count(n_particles)
        return cls.from_diagonal(np.ones(2**n_particles), labels)

    @classmethod
    def zero(cls, n_particles: int, labels: LabelScheme = BOX_LABELS) -> "Operator":
        _check_particle_count(n_particles)
        return cls.from_diagonal(np.zeros(2**n_particles), labels)

    @property
    def entries(self) -> np.ndarray:
        """The full matrix, read-only; built on each read for a diagonal operator."""
        dense = self._data if self._data.ndim == 2 else np.diag(self._data)
        dense.setflags(write=False)
        return dense

    @property
    def labels(self) -> LabelScheme:
        return self._labels

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def n_particles(self) -> int:
        return self.dim.bit_length() - 1

    def dagger(self) -> "Operator":
        return Operator._of(self._data.conj().T, self._labels)

    def diagonal(self) -> np.ndarray:
        return (self._data if self._data.ndim == 1 else self._data.diagonal()).copy()

    @_quiet
    def max_entry(self) -> float:
        """The largest entry magnitude, the max-entry norm of the matrix."""
        return float(np.max(np.abs(self._data)))

    def with_labels(self, labels: LabelScheme) -> "Operator":
        return Operator._of(self._data, _scheme(labels))

    @_quiet
    def __add__(self, other: "Operator") -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        a, b = _operand_arrays(self._data, other._data)
        return Operator._of(a + b, self._labels)

    @_quiet
    def __sub__(self, other: "Operator") -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        a, b = _operand_arrays(self._data, other._data)
        return Operator._of(a - b, self._labels)

    def __neg__(self) -> "Operator":
        return Operator._of(-self._data, self._labels)

    @_quiet
    def __mul__(self, scalar) -> "Operator":
        if not isinstance(scalar, (int, float, complex, np.number)):
            return NotImplemented
        return Operator._of(self._data * complex(scalar), self._labels)

    __rmul__ = __mul__

    @_quiet
    def __matmul__(self, other: "Operator") -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        a, b = _operand_arrays(self._data, other._data)
        return Operator._of(a * b if a.ndim == 1 else a @ b, self._labels)

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    def __reduce__(self):
        # copied and unpickled through the public constructors, in the stored form
        if self._data.ndim == 1:
            return Operator.from_diagonal, (self._data, self._labels)
        return Operator, (self._data, self._labels)

    def __repr__(self) -> str:
        return f"Operator(n_particles={self.n_particles}, labels={self._labels.name!r})"


def _state(value) -> KetLike:
    """A state argument: a Ket or an UnnormalizedKet, anything else refused."""
    return expect(value, _Vector, "a state (Ket or UnnormalizedKet)")


def _operator(value) -> Operator:
    """An operator argument: an Operator, anything else refused."""
    return expect(value, Operator, "an Operator")


def _operator_list(values) -> list[Operator]:
    """An argument holding operators: any iterable of them, anything else refused."""
    return [_operator(op) for op in expect(values, Iterable, "an iterable of Operators")]


@cache
def _named_ket(name: str) -> Ket:
    # one shared read-only ket per named state, built on first use
    return Ket(_NAMED_STATES[name])


def make_single_particle_state(
    state: str | tuple[complex, complex],
    labels: LabelScheme = BOX_LABELS,
) -> Ket:
    """Build a one-particle state from a name or an explicit coefficient pair.

    Parameters
    ----------
    state : str or (complex, complex)
        One of the names L, R, plus, minus, plus_i, minus_i (short
        aliases "+", "-", "+i", "-i" also work), or an explicit
        (cL, cR) pair of finite numbers, which is normalized whatever
        its magnitude. A zero pair is rejected as an unnormalizable
        state.
    """
    if isinstance(state, str):
        ket = _named_ket(canonical_state_name(state))
        return ket if labels is ket.labels else ket.with_labels(labels)
    return Ket(_single_pair(state), labels)


def basis_state(label: str, labels: LabelScheme = BOX_LABELS) -> Ket:
    """The computational basis state for a letter string such as "LRL"."""
    n, labels = len(expect(label, str, "a basis label (str)")), _scheme(labels)
    index = 0
    for letter in label:
        try:
            bit = labels.letters.index(letter)
        except ValueError:
            raise InvalidArgumentError(f"letter {letter!r} is not part of the {labels.name} scheme") from None
        index = index * 2 + bit
    amplitudes = np.zeros(2**n, dtype=np.complex128)
    amplitudes[index] = 1.0
    return Ket(amplitudes, labels)


def tensor(states: Sequence[KetLike]) -> KetLike:
    """Tensor product of single- or multi-particle states.

    Particle 1 of the first factor stays the leftmost, most significant
    slot of the result. Returns a :class:`Ket` when every factor is one,
    otherwise an :class:`UnnormalizedKet`.
    """
    states = [_state(s) for s in expect(states, Sequence, "a sequence of states")]
    if len(states) == 0:
        raise InvalidArgumentError("tensor needs at least one state")
    scheme = states[0].labels
    for s in states[1:]:
        if s.labels.name != scheme.name:
            raise InvalidArgumentError("tensor factors carry mixed label schemes")
    # each entry is the one product a kron chain forms, so the result is the same
    combined = reduce(lambda a, b: np.multiply.outer(a, b).ravel(),
                      (s.amplitudes for s in states))
    if all(isinstance(s, Ket) for s in states):
        return Ket(combined, scheme)
    return UnnormalizedKet(combined, scheme)


def inner(bra: KetLike, ket: KetLike) -> complex:
    """The inner product <bra|ket>, conjugate linear in the first slot."""
    bra, ket = _state(bra), _state(ket)
    if bra.dim != ket.dim:
        raise DimensionMismatchError(f"state dimensions differ: {bra.dim} vs {ket.dim}")
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))


@_quiet
def apply(op: Operator, ket: KetLike) -> UnnormalizedKet:
    """Apply an operator to a state. The result is deliberately unnormalized."""
    op, ket = _operator(op), _state(ket)
    if op.dim != ket.dim:
        raise DimensionMismatchError(f"operator dimension {op.dim} does not match state dimension {ket.dim}")
    image = op._data @ ket.amplitudes if op._data.ndim == 2 else op._data * ket.amplitudes
    return UnnormalizedKet._of(image, ket.labels)


@_quiet
def matrix_element(bra: KetLike, op: Operator, ket: KetLike) -> complex:
    """The sandwiched element <bra|op|ket>."""
    return inner(bra, apply(op, ket))


@_quiet
def eigenstate_residual(op: Operator, ket: Ket, eigenvalue: complex) -> float:
    """The Euclidean norm of op|ket> - eigenvalue|ket>."""
    if not isinstance(ket, Ket):
        raise InvalidArgumentError("an eigenstate test expects a normalized Ket")
    eigenvalue = _finite_eigenvalue(eigenvalue)
    return float(np.linalg.norm(apply(op, ket).amplitudes - eigenvalue * ket.amplitudes))


def is_eigenstate(op: Operator, ket: Ket, eigenvalue: complex,
                  tol: float = DEFAULT_TOLERANCE) -> bool:
    """Whether op|ket> equals eigenvalue|ket> within ``tol`` (Euclidean norm)."""
    return eigenstate_residual(op, ket, eigenvalue) <= expect_tolerance(tol)


# built projectors and their checks --------------------------------------------------


def build_projector(spec: ProjectorSpec) -> Operator:
    """Realize a :class:`~twobox.projectors.ProjectorSpec` as its 0/1 diagonal."""
    n = expect(spec, ProjectorSpec, "a ProjectorSpec").n_particles
    mask, allowed = _pattern(spec)
    masked = np.arange(2**n) & mask
    holds = masked == allowed[0]
    for value in allowed[1:]:
        holds |= masked == value
    return Operator._of(holds.astype(np.complex128), BOX_LABELS)


def build_hamiltonian(spec: HamiltonianSpec) -> Operator:
    """Realize a weighted projector sum, adding the terms in order to the zero
    operator; an empty term list gives the zero operator."""
    spec = expect(spec, HamiltonianSpec, "a HamiltonianSpec")
    return sum((coeff * build_projector(proj) for coeff, proj in spec.terms),
               start=Operator.zero(spec.n_particles))


def _check_norm(result) -> float:
    """``max_entry`` of the operator ``result()`` that a structural check forms
    from checked operators, refused if not finite as the same check on label
    classes refuses its overflow (``projectors._class_max``)."""
    try:
        return result().max_entry()
    except InvalidAmplitudesError:  # a computed operator that is not finite
        raise InvalidAmplitudesError(_CHECK_OVERFLOW) from None


def is_hermitian(op: Operator, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Whether the operator equals its own adjoint, max-entry norm."""
    op, tol = _operator(op), expect_tolerance(tol)
    return _check_norm(lambda: op - op.dagger()) <= tol


def idempotency_defect(op: Operator) -> float:
    """Max-entry norm of op@op - op; zero for exact projectors."""
    op = _operator(op)
    return _check_norm(lambda: op @ op - op)


def is_projector(op: Operator, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Hermitian and idempotent within ``tol`` (max-entry norm on both checks)."""
    return is_hermitian(op, tol) and idempotency_defect(op) <= expect_tolerance(tol)


def are_orthogonal(a: Operator, b: Operator, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Whether both products a@b and b@a vanish within ``tol``."""
    a, b, tol = _operator(a), _operator(b), expect_tolerance(tol)
    return _check_norm(lambda: a @ b) <= tol and _check_norm(lambda: b @ a) <= tol


def is_resolution_of_identity(projectors: Iterable[Operator],
                              tol: float = DEFAULT_TOLERANCE) -> bool:
    """Whether the operators are mutually orthogonal projectors summing to one.

    Accepts any iterable of operators, including a :class:`MeasurementSet`.
    """
    ops, tol = _operator_list(projectors), expect_tolerance(tol)
    if not ops:
        raise InvalidArgumentError("resolution check needs at least one operator")
    total = sum(ops[1:], start=ops[0])
    return (all(is_projector(op, tol) for op in ops)
            and all(are_orthogonal(a, b, tol) for i, a in enumerate(ops) for b in ops[i + 1:])
            and (total - Operator.identity(total.n_particles)).max_entry() <= tol)


def relabel_to_spin(value: Ket | UnnormalizedKet | Operator):
    """Present a box-labeled value in spin language: L as up, R as down,
    the box superpositions as x and y spin states. Amplitudes and entries
    are carried over untouched."""
    if isinstance(value, (Ket, UnnormalizedKet, Operator)):
        return value.with_labels(SPIN_LABELS)
    raise InvalidArgumentError(f"cannot relabel {type(value).__name__}")


# the engine on built operators ------------------------------------------------------


class PrePostSelection(_Record):
    """A preselected and a postselected state on the same particle count."""

    def __init__(self, pre: Ket, post: Ket):
        if _state(pre).dim != _state(post).dim:
            raise DimensionMismatchError(
                f"pre and post dimensions differ: {pre.dim} vs {post.dim}")
        self.__dict__.update(pre=pre, post=post)

    @property
    def n_particles(self) -> int:
        return self.pre.n_particles

    @property
    def dim(self) -> int:
        return self.pre.dim

    def overlap(self) -> complex:
        """The postselection amplitude <post|pre> with no question asked."""
        return inner(self.post, self.pre)


class MeasurementSet:
    """An ordered collection of projectors with parallel display labels."""

    __slots__ = ("_projectors", "_labels")

    def __init__(self, projectors: Sequence[Operator],
                 labels: Sequence[str] | None = None):
        ops = tuple(_operator_list(projectors))
        if not ops:
            raise InvalidArgumentError("a measurement set needs at least one projector")
        dim = ops[0].dim
        for op in ops[1:]:
            if op.dim != dim:
                raise DimensionMismatchError("projectors in the set have mixed dimensions")
        if labels is None:
            labels = tuple(f"outcome{i}" for i in range(len(ops)))
        else:
            if isinstance(labels, str):  # one label per projector, not one character each
                raise InvalidArgumentError("expected an iterable of labels, got str")
            labels = tuple(str(s) for s in expect(labels, Iterable, "an iterable of labels"))
            if len(labels) != len(ops):
                raise InvalidArgumentError("labels and projectors must pair up one to one")
        object.__setattr__(self, "_projectors", ops)
        object.__setattr__(self, "_labels", labels)

    @property
    def projectors(self) -> tuple[Operator, ...]:
        return self._projectors

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def dim(self) -> int:
        return self._projectors[0].dim

    def __len__(self) -> int:
        return len(self._projectors)

    def __iter__(self):
        return iter(self._projectors)

    def __setattr__(self, name, value):
        raise AttributeError("MeasurementSet is immutable")

    def __reduce__(self):
        # copied and unpickled through the constructor, which checks again
        return MeasurementSet, (self._projectors, self._labels)


ProjectorSet = Union[MeasurementSet, Sequence[Operator]]


def _selection(value) -> PrePostSelection:
    """A selection argument: a PrePostSelection, anything else refused."""
    return expect(value, PrePostSelection, "a PrePostSelection")


def abl_amplitude(selection: PrePostSelection, op: Operator) -> complex:
    """The conditional amplitude <post|op|pre>.

    This is simultaneously the numerator of the corresponding weak
    value, so a vanishing conditional probability and a vanishing weak
    value are one statement.
    """
    if _operator(op).dim != _selection(selection).dim:
        raise DimensionMismatchError(
            f"operator dimension {op.dim} does not match the selection dimension {selection.dim}")
    return matrix_element(selection.post, op, selection.pre)


def abl_probabilities(selection: PrePostSelection, measurement: MeasurementSet,
                      tol: float = DEFAULT_TOLERANCE) -> AblResult:
    """Conditional outcome probabilities for a complete projective measurement.

    Parameters
    ----------
    selection : PrePostSelection
    measurement : MeasurementSet
        Must resolve the identity; anything else is an incomplete
        measurement and is refused rather than renormalized.
    tol : float
        Zero threshold for the completeness check and the denominator.

    Raises
    ------
    IncompleteMeasurementError
        If the projectors do not resolve the identity.
    ImpossiblePostselectionError
        If every outcome amplitude vanishes, which happens exactly when
        the postselection is unreachable from the preselection.
    """
    measurement = expect(measurement, MeasurementSet, "a MeasurementSet")
    tol = expect_tolerance(tol)
    if measurement.dim != _selection(selection).dim:
        raise DimensionMismatchError(
            f"measurement dimension {measurement.dim} does not match the selection dimension {selection.dim}")
    if not is_resolution_of_identity(measurement.projectors, tol):
        raise IncompleteMeasurementError("incomplete measurement")
    return _abl_result([abl_amplitude(selection, op) for op in measurement], tol)


def weak_value(selection: PrePostSelection, op: Operator,
               tol: float = DEFAULT_TOLERANCE) -> complex:
    """The weak value <post|op|pre> / <post|pre>.

    Raises
    ------
    OrthogonalSelectionError
        If <post|pre> is zero or |<post|pre>| <= tol, where the quotient
        is undefined or meaningless.
    """
    denominator = _weak_denominator(_selection(selection).overlap(), expect_tolerance(tol))
    return abl_amplitude(selection, op) / denominator


def weak_value_sum(selection: PrePostSelection, ops: Sequence[Operator],
                   tol: float = DEFAULT_TOLERANCE) -> complex:
    """Sum of weak values over ``ops``, cross-checked against linearity.

    The member weak values are summed directly and the weak value of
    the summed operator is computed independently. The two routes round
    differently, so they must agree within rounding of the magnitudes
    involved: (dimension + members) ulps of the summed largest operator
    entries over |<post|pre>|. ``tol`` only guards the overlap, as in
    :func:`weak_value`. An empty list sums to zero. The members need not
    commute and their sum need not be a projector.

    Raises
    ------
    LinearityCheckError
        If the two routes disagree beyond that rounding bound.
    """
    _selection(selection)
    ops, tol = _operator_list(ops), expect_tolerance(tol)
    if not ops:
        return 0j
    total = sum(weak_value(selection, op, tol) for op in ops)
    via_sum = weak_value(selection, sum(ops[1:], start=ops[0]), tol)
    scale = sum(op.max_entry() for op in ops) / abs(selection.overlap())
    return _linearity_checked(total, via_sum, scale, selection.dim + len(ops))


def detailed_probability(selection: PrePostSelection, projectors: ProjectorSet,
                         tol: float = DEFAULT_TOLERANCE) -> float:
    """Incoherent subset probability: the sum of squared member amplitudes.

    Each member must individually be a projector; the set need not be
    complete. An empty set contributes zero.
    """
    _selection(selection)
    ops, tol = _operator_list(projectors), expect_tolerance(tol)
    for op in ops:
        if not is_projector(op, tol):
            raise NotAProjectorError("non-projector member")
    return _sum_abs2(abl_amplitude(selection, op) for op in ops)


def global_probability(selection: PrePostSelection, projectors: ProjectorSet,
                       tol: float = DEFAULT_TOLERANCE) -> float:
    """Coherent subset probability: the squared amplitude of the summed projector.

    The member sum must itself be a projector for the joint question to
    mean anything; otherwise IllegitimateQuestionError is raised. In
    general this differs from :func:`detailed_probability` in either
    direction, which is an interference statement, not a bug.
    """
    _selection(selection)
    ops, tol = _operator_list(projectors), expect_tolerance(tol)
    if not ops:
        raise InvalidArgumentError("global probability needs at least one projector")
    combined = sum(ops[1:], start=ops[0])
    if not is_projector(combined, tol):
        raise IllegitimateQuestionError("not a legitimate question")
    return abs2(abl_amplitude(selection, combined))


def transition_element(selection: PrePostSelection, hamiltonian: Operator) -> complex:
    """The matrix element <post|H|pre> of an interaction between the selected states.

    Numerically this is the conditional amplitude (:func:`abl_amplitude`);
    reports flag it as a transition quantity because it answers "can H drive
    pre to post", not "was some property present in between".
    """
    return abl_amplitude(selection, hamiltonian)

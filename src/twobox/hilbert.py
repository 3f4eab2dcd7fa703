"""State vectors and operators for n particles, each in one of two boxes.

The single-particle space is two dimensional. n particles live on the
2**n dimensional tensor product whose basis states carry letter strings
such as "LRL": particle 1 is the leftmost letter and the most significant
bit of the basis index, with L = 0 and R = 1. An operator is stored as
its diagonal when it is built as one (every correlation projector is) and
as a dense matrix when it is given as one. Everything is double precision
and immutable after construction.

Arrays are checked where they enter: a caller's amplitudes or entries
(``Ket``, ``UnnormalizedKet``, ``Operator``, ``Operator.from_diagonal``)
are copied and checked in full, for shape, a power-of-two size, the
``MAX_PARTICLES`` limit and finiteness. A result the library computes
from checked values (operator arithmetic, ``apply``, a projector mask)
keeps shape and size by construction, so it is only checked for
finiteness, which overflow can lose, and marked read-only, not copied.

Which path runs: numpy runs on its first array use, not with the package.
``np`` below is a deferred handle on it, shared by ``projectors``: the
module executes on its first attribute access. A scenario of named or
coefficient-pair states and spec-built queries computes on the normalized
``(cL, cR)`` pairs (``_single_pair``) in plain Python and never loads it,
and so does its check of a state given by all its amplitudes
(``_explicit_amplitudes``), which refuses what ``Ket`` refuses. A ``Ket``,
an ``Operator`` or a function given one loads it.
"""

from __future__ import annotations

import cmath
import importlib.util
import math
import sys
from collections.abc import Collection, Iterable, Mapping, Sequence, Set
from functools import cache, reduce, wraps
from types import MappingProxyType
from typing import Union

from .errors import (DimensionMismatchError, InvalidAmplitudesError, InvalidArgumentError,
                     UnnormalizableStateError, expect, expect_tolerance, quoted)

DEFAULT_TOLERANCE = 1e-12
MAX_PARTICLES = 12


def _deferred(name: str):
    """The module ``name``, executed on its first attribute access unless it is
    already imported. An ``import`` statement for it reads its ``__spec__`` and
    so executes it too; only this handle refers to it. Python 3.11's lazy
    loader takes no lock, so there a threaded caller makes the first access
    from one thread."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


np = _deferred("numpy")


def abs2(z: complex) -> float:
    """Squared magnitude without the square root, so dyadic values stay exact."""
    return z.real * z.real + z.imag * z.imag


class _Record:
    """Value semantics for the library's frozen records, written once.

    A record's fields are the parameters of its own ``__init__``, in order:
    ``__match_args__`` is read from the function's code object when the class
    is made. That ``__init__`` checks its arguments and stores the fields with
    one ``self.__dict__.update``, so ``__dict__`` holds exactly the fields, in
    that order. Two records are equal when they are of one class with equal
    fields; a record hashes as the tuple of its fields, prints as
    ``Class(field=value, ...)`` and refuses assignment and deletion. These
    are the semantics, hash values and reprs of a frozen dataclass.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        init = cls.__dict__.get("__init__")
        if init is not None:
            code = init.__code__
            cls.__match_args__ = code.co_varnames[1:code.co_argcount]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LabelScheme(_Record):
    """Presentation names for the basis letters and the named superpositions.

    Relabeling swaps schemes without touching a single amplitude; two
    values that differ only in scheme describe identical numbers. The
    named states are kept read-only, and the repr and hash leave them out.
    """

    def __init__(self, name: str, letters: tuple[str, str], named_states: Mapping[str, str]):
        self.__dict__.update(name=name, letters=letters,
                             named_states=MappingProxyType(dict(named_states)))

    def __hash__(self):
        return hash((self.name, self.letters))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(name={self.name!r}, letters={self.letters!r})"

    def __reduce__(self):
        # a mappingproxy cannot be pickled or copied; the plain dict can
        return type(self), (self.name, self.letters, dict(self.named_states))

    def basis_label(self, index: int, n_particles: int) -> str:
        if not 0 <= index < 2**n_particles:
            raise InvalidArgumentError(f"basis index {index} out of range for {n_particles} particles")
        bits = format(index, f"0{n_particles}b")
        return "".join(self.letters[int(b)] for b in bits)

    def state_display(self, canonical_name: str) -> str:
        return self.named_states[canonical_name]


BOX_LABELS = LabelScheme(
    name="box",
    letters=("L", "R"),
    named_states={"L": "L", "R": "R", "plus": "+", "minus": "-",
                  "plus_i": "+i", "minus_i": "-i"},
)

SPIN_LABELS = LabelScheme(
    name="spin",
    letters=("↑", "⇓"),
    named_states={"L": "↑", "R": "⇓", "plus": "x,+", "minus": "x,-",
                  "plus_i": "y,+", "minus_i": "y,-"},
)

_SCHEMES = {"box": BOX_LABELS, "spin": SPIN_LABELS}


def label_scheme(name: str) -> LabelScheme:
    """Return the scheme registered under ``name`` ("box" or "spin")."""
    try:
        return _SCHEMES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise InvalidArgumentError(f"unknown label scheme {name!r}") from None


def _check_particle_count(n_particles: int) -> None:
    """Refuse a particle count that is not an integer in 1..MAX_PARTICLES; a bool is none."""
    if (not isinstance(n_particles, int) or isinstance(n_particles, bool)
            or not 1 <= n_particles <= MAX_PARTICLES):
        raise InvalidArgumentError(f"n_particles must lie in 1..{MAX_PARTICLES}")


def _scheme(labels) -> LabelScheme:
    """A labels argument: a LabelScheme, anything else refused."""
    return expect(labels, LabelScheme, "a LabelScheme")


def _as_number(value, what: str) -> complex:
    """``complex(value)``, or an InvalidArgumentError naming ``what``."""
    try:
        return complex(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidArgumentError(f"{what} must be a number, got {quoted(value)}") from None


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


def _norm_sq(amplitudes: Sequence[complex]) -> float:
    """The squared Euclidean norm, summed exactly (``math.fsum``), so that it
    does not depend on the CPU; inf or NaN where numpy's sum gives them."""
    squares = [z.real * z.real for z in amplitudes] + [z.imag * z.imag for z in amplitudes]
    try:
        return math.fsum(squares)
    except OverflowError:  # finite squares past the float range: the plain sum is inf or NaN
        return sum(squares)


def _explicit_amplitudes(values) -> tuple[complex, ...]:
    """The amplitudes of a normalized state given in full, as a collection,
    checked in plain Python as ``Ket`` checks them, with the same refusals in
    the same order: numbers in one dimension, a length of 2**n >= 2,
    n <= MAX_PARTICLES, finite, and a squared norm within DEFAULT_TOLERANCE of 1
    (``_norm_sq``; only its digits in that refusal may differ from ``Ket``'s)."""
    if isinstance(values, (str, bytes, Mapping, Set)) or not isinstance(values, Collection):
        raise InvalidAmplitudesError("amplitudes must be an array of numbers")
    try:
        amplitudes = tuple(map(complex, values))
    except (TypeError, ValueError, OverflowError):
        # numpy reads rows of one length as a matrix, and anything else as no array
        rows = {len(v) if isinstance(v, Collection) and not isinstance(v, str) else None
                for v in values}
        matrix = None not in rows and len(rows) == 1
        shape = "form a one dimensional sequence" if matrix else "be an array of numbers"
        raise InvalidAmplitudesError(f"amplitudes must {shape}") from None
    dim = len(amplitudes)
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise InvalidAmplitudesError(f"amplitudes dimension {dim} is not a power of two >= 2")
    if n > MAX_PARTICLES:
        raise InvalidAmplitudesError(
            f"{n} particles exceeds the supported maximum of {MAX_PARTICLES}")
    if not all(map(cmath.isfinite, amplitudes)):
        raise InvalidAmplitudesError("amplitudes must be finite")
    norm_sq = _norm_sq(amplitudes)
    if abs(norm_sq - 1.0) > DEFAULT_TOLERANCE:
        raise InvalidAmplitudesError(f"state vector is not normalized (squared norm {norm_sq!r})")
    return amplitudes


def _quiet(fn):
    """``fn`` with numpy's overflow and invalid warnings off, for arithmetic whose
    result ``_computed`` checks or, for a norm, reads inf; the errstate is made per
    call, when numpy is needed."""
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


# every accepted state name, short aliases first, in the order the scenario schema lists them
_STATE_ALIASES = {
    "L": "L", "R": "R", "+": "plus", "-": "minus", "+i": "plus_i", "-i": "minus_i",
    "plus": "plus", "minus": "minus", "plus_i": "plus_i", "minus_i": "minus_i",
}

_HALF_SQRT2 = math.sqrt(0.5)

# the named single-particle states as normalized (cL, cR) pairs
_NAMED_STATES = {
    "L": (1.0 + 0.0j, 0.0j),
    "R": (0.0j, 1.0 + 0.0j),
    "plus": (_HALF_SQRT2 + 0.0j, _HALF_SQRT2 + 0.0j),
    "minus": (_HALF_SQRT2 + 0.0j, -_HALF_SQRT2 + 0.0j),
    "plus_i": (_HALF_SQRT2 + 0.0j, _HALF_SQRT2 * 1.0j),
    "minus_i": (_HALF_SQRT2 + 0.0j, -_HALF_SQRT2 * 1.0j),
}


def canonical_state_name(name: str) -> str:
    """Map a state name or its short alias ("+", "-i", ...) to the canonical key."""
    try:
        return _STATE_ALIASES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        options = ", ".join(sorted(_STATE_ALIASES))
        raise InvalidArgumentError(f"unknown state name {name!r}; choose one of {options}") from None


def _single_pair(state: str | tuple[complex, complex]) -> tuple[complex, complex]:
    """The normalized (cL, cR) pair of a one-particle state given as in
    :func:`make_single_particle_state`, computed in scalar Python: the one
    check of a single-particle state spec."""
    if isinstance(state, str):
        return _NAMED_STATES[canonical_state_name(state)]
    try:
        cL, cR = state
    except (TypeError, ValueError):
        raise InvalidArgumentError(
            "an explicit single-particle state needs exactly two coefficients") from None
    cL, cR = _as_number(cL, "a state coefficient"), _as_number(cR, "a state coefficient")
    parts = (cL.real, cL.imag, cR.real, cR.imag)
    if not all(map(math.isfinite, parts)):
        raise InvalidAmplitudesError("coefficients must be finite")
    norm_sq = abs2(cL) + abs2(cR)
    if 0.0 < norm_sq < math.inf:
        scale = math.sqrt(norm_sq)
        pair = cL / scale, cR / scale
        # the check of Ket; a subnormal squared norm keeps too few digits to pass it
        if abs(abs2(pair[0]) + abs2(pair[1]) - 1.0) <= DEFAULT_TOLERANCE:
            return pair
    # over- or underflow, or too few digits: scale by the larger part first
    big = max(map(abs, parts))
    if big == 0.0:
        raise UnnormalizableStateError("unnormalizable state")
    cL, cR = complex(cL.real / big, cL.imag / big), complex(cR.real / big, cR.imag / big)
    scale = math.sqrt(abs2(cL) + abs2(cR))
    return cL / scale, cR / scale


def _product_amplitudes(pairs: Sequence[tuple[complex, complex]]) -> list[complex]:
    """The amplitudes of the product of one-particle (cL, cR) pairs, in
    :func:`tensor`'s label order and formed as it forms them: the product of
    the first factors times the next one."""
    amplitudes = list(pairs[0])
    for pair in pairs[1:]:
        amplitudes = [a * c for a in amplitudes for c in pair]
    return amplitudes


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
    return float(np.linalg.norm(apply(op, ket).amplitudes - complex(eigenvalue) * ket.amplitudes))


def is_eigenstate(op: Operator, ket: Ket, eigenvalue: complex,
                  tol: float = DEFAULT_TOLERANCE) -> bool:
    """Whether op|ket> equals eigenvalue|ket> within ``tol`` (Euclidean norm)."""
    return eigenstate_residual(op, ket, eigenvalue) <= expect_tolerance(tol)

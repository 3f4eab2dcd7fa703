"""Labels and one-particle states for n particles, each in one of two boxes.

The single-particle space is two dimensional. n particles live on the
2**n dimensional tensor product whose basis states carry letter strings
such as "LRL": particle 1 is the leftmost letter and the most significant
bit of the basis index, with L = 0 and R = 1. This module holds, in plain
Python, the label schemes, the named states as normalized ``(cL, cR)`` pairs,
the checks of a state given by its pair (``_single_pair``) or by all its
amplitudes (``_explicit_amplitudes``) and the value semantics of records;
states and operators as arrays are in :mod:`twobox.dense`.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Collection, Mapping, Sequence, Set
from types import MappingProxyType

from .errors import InvalidAmplitudesError, InvalidArgumentError, UnnormalizableStateError, quoted

DEFAULT_TOLERANCE = 1e-12
MAX_PARTICLES = 12


def _forward(module: str, names: tuple[str, ...]):
    """The ``__getattr__`` and ``__dir__`` of ``module`` for ``names``, which
    :mod:`twobox.dense` holds and imports on the first access to one of them.
    Any other name, a dunder among them, is refused with no import."""
    def __getattr__(name):
        if name not in names:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        from . import dense
        return getattr(dense, name)

    def __dir__():
        return sorted({*names, *vars(sys.modules[module])} - {"__getattr__", "__dir__"})

    return __getattr__, __dir__


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


def _as_number(value, what: str) -> complex:
    """``complex(value)``, or an InvalidArgumentError naming ``what``."""
    try:
        return complex(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidArgumentError(f"{what} must be a number, got {quoted(value)}") from None


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
    :func:`~twobox.dense.make_single_particle_state`, computed in scalar Python:
    the one check of a single-particle state spec."""
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
    :func:`~twobox.dense.tensor`'s label order and formed as it forms them: the
    product of the first factors times the next one."""
    amplitudes = list(pairs[0])
    for pair in pairs[1:]:
        amplitudes = [a * c for a in amplitudes for c in pair]
    return amplitudes


__getattr__, __dir__ = _forward(__name__, (
    "Ket", "UnnormalizedKet", "Operator", "KetLike", "make_single_particle_state", "basis_state",
    "tensor", "inner", "apply", "matrix_element", "eigenstate_residual", "is_eigenstate"))

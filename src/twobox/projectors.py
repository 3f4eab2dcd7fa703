"""Correlation projectors on the n-particle two-box space.

Every projector here is diagonal in the box basis, so each is built and
stored as its 0/1 diagonal: one bit test per basis index, where bit
n - k of the index is 1 exactly when particle k sits in box R. The same
bit tests (``_holds``) give a product of specs its amplitude between two
product states without any 2**n array, summing over the labels of the
particles the specs touch only (``_product_amplitude``), and give the
0/1 masks on which scenario runs check their preconditions exactly.

The structural checks (``is_hermitian``, ``idempotency_defect``,
``is_projector``, ``are_orthogonal``, ``is_resolution_of_identity``) and
``build_hamiltonian`` compute on an operator's stored array: entry by entry
on a diagonal, with ``@`` on a dense matrix, under one ``np.errstate`` per
call and with no intermediate Operator. Each returns, bit for bit, what the
same expression in Operator arithmetic gives (``(op @ op - op).max_entry()``
and so on), and refuses an overflow with the same message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidAmplitudesError, InvalidArgumentError, quoted
from .hilbert import (
    BOX_LABELS,
    DEFAULT_TOLERANCE,
    MAX_PARTICLES,
    SPIN_LABELS,
    Ket,
    Operator,
    UnnormalizedKet,
    _as_number,
    _computed,
    _entries_what,
    _operand_arrays,
    _quiet,
)

PROJECTOR_KINDS = ("box", "pair_same", "pair_diff", "all_same", "sd")


def _check_particle(index: int, n_particles: int, what: str) -> None:
    if not isinstance(index, int) or isinstance(index, bool):
        raise InvalidArgumentError(f"{what} must be an integer, got {quoted(index)}")
    if not 1 <= index <= n_particles:
        raise InvalidArgumentError(f"{what} {quoted(index)} out of range 1..{n_particles}")


@dataclass(frozen=True)
class ProjectorSpec:
    """A symbolic description of one correlation projector.

    kind
        "box"       one particle sits in a named box
        "pair_same" two particles share a box
        "pair_diff" two particles occupy different boxes
        "all_same"  every particle shares one box
        "sd"        a pair shares a box while a marked third particle
                    occupies the other one
    """

    kind: str
    n_particles: int
    particle: int | None = None
    box: str | None = None
    pair: tuple[int, int] | None = None
    other: int | None = None

    def __post_init__(self):
        if self.kind not in PROJECTOR_KINDS:
            raise InvalidArgumentError(f"unknown projector kind {quoted(self.kind)}")
        if not isinstance(self.n_particles, int) or not 1 <= self.n_particles <= MAX_PARTICLES:
            raise InvalidArgumentError(f"n_particles must lie in 1..{MAX_PARTICLES}")
        if self.kind == "box":
            _check_particle(self.particle, self.n_particles, "particle")
            if self.box not in ("L", "R"):
                raise InvalidArgumentError(f"box must be 'L' or 'R', got {quoted(self.box)}")
        elif self.kind in ("pair_same", "pair_diff", "sd"):
            if self.n_particles < 2:
                raise InvalidArgumentError(f"{self.kind} needs at least two particles")
            try:
                i, j = self.pair
            except (TypeError, ValueError):
                raise InvalidArgumentError(
                    f"{self.kind} needs a pair of two particles, got {quoted(self.pair)}") from None
            _check_particle(i, self.n_particles, "pair member")
            _check_particle(j, self.n_particles, "pair member")
            if i == j:
                raise InvalidArgumentError("pair members must be distinct")
            if i > j:
                object.__setattr__(self, "pair", (j, i))
            else:
                object.__setattr__(self, "pair", (i, j))
            if self.kind == "sd":
                if self.n_particles < 3:
                    raise InvalidArgumentError("sd needs at least three particles")
                _check_particle(self.other, self.n_particles, "other particle")
                if self.other in self.pair:
                    raise InvalidArgumentError("the marked particle must differ from the pair")
        elif self.kind == "all_same":
            if self.n_particles < 2:
                raise InvalidArgumentError("all_same needs at least two particles")

    @classmethod
    def box_occupation(cls, particle: int, box: str, n_particles: int) -> "ProjectorSpec":
        """Particle ``particle`` found in box "L" or "R"."""
        return cls("box", n_particles, particle=particle, box=box)

    @classmethod
    def pair_same(cls, i: int, j: int, n_particles: int) -> "ProjectorSpec":
        """Particles i and j found in one box (either one)."""
        return cls("pair_same", n_particles, pair=(i, j))

    @classmethod
    def pair_diff(cls, i: int, j: int, n_particles: int) -> "ProjectorSpec":
        """Particles i and j found in different boxes."""
        return cls("pair_diff", n_particles, pair=(i, j))

    @classmethod
    def all_same(cls, n_particles: int) -> "ProjectorSpec":
        """Every particle found in one box."""
        return cls("all_same", n_particles)

    @classmethod
    def sd(cls, i: int, j: int, other: int, n_particles: int) -> "ProjectorSpec":
        """Particles i and j share a box while ``other`` occupies the other one."""
        return cls("sd", n_particles, pair=(i, j), other=other)

    def label(self) -> str:
        if self.kind == "box":
            return f"box({self.particle},{self.box})"
        if self.kind == "pair_same":
            return f"pair_same({self.pair[0]},{self.pair[1]})"
        if self.kind == "pair_diff":
            return f"pair_diff({self.pair[0]},{self.pair[1]})"
        if self.kind == "sd":
            return f"sd({self.pair[0]},{self.pair[1]};{self.other})"
        return "all_same"


def _holds(spec: ProjectorSpec, index, n: int):
    """Whether ``spec`` holds at basis index ``index`` of n particles: an int,
    or an integer array for a whole diagonal at once."""
    if spec.kind == "all_same":
        return (index == 0) | (index == 2**n - 1)
    if spec.kind == "box":
        return (index >> (n - spec.particle)) & 1 == "LR".index(spec.box)
    i, j = spec.pair
    bit_i, bit_j = (index >> (n - i)) & 1, (index >> (n - j)) & 1  # 1 where in R
    if spec.kind == "pair_same":
        return bit_i == bit_j
    if spec.kind == "pair_diff":
        return bit_i != bit_j
    return (bit_i == bit_j) & ((index >> (n - spec.other)) & 1 != bit_i)  # sd


def build_projector(spec: ProjectorSpec) -> Operator:
    """Realize a :class:`ProjectorSpec` as its 0/1 diagonal."""
    n = spec.n_particles
    mask = _holds(spec, np.arange(2**n), n)
    return Operator._of(mask.astype(np.complex128), BOX_LABELS)


def _product_mask(product: Sequence[ProjectorSpec], n_particles: int) -> np.ndarray:
    """The 0/1 diagonal of a product of specs, as booleans; the empty product
    is the identity."""
    index = np.arange(2**n_particles)
    mask = np.ones(2**n_particles, dtype=bool)
    for spec in product:
        mask &= _holds(spec, index, n_particles)
    return mask


def _product_amplitude(product: Sequence[ProjectorSpec],
                       weights: Sequence[Sequence[complex]]) -> complex:
    """<post|P|pre> for the product P of specs between two product states.

    ``weights[k - 1]`` holds c_k(b) = conj(post_k[b]) pre_k[b] for b = L, R.
    The sum over basis states factorizes: only the labels of the particles
    the specs touch are summed over, kept by the bit tests of
    :func:`build_projector`, and every other particle k contributes
    c_k(L) + c_k(R). ``all_same`` holds only on the two uniform labels.
    The empty product gives <post|pre>.
    """
    n = len(weights)
    rest = 1
    if any(spec.kind == "all_same" for spec in product):
        labels = [(0, math.prod(w[0] for w in weights)),
                  (2**n - 1, math.prod(w[1] for w in weights))]
    else:
        touched = {k for spec in product
                   for k in (spec.particle, spec.other, *(spec.pair or ())) if k is not None}
        labels = [(0, 1)]
        for k, (c_left, c_right) in enumerate(weights, start=1):
            if k in touched:
                r_bit = 1 << (n - k)
                labels = ([(index, w * c_left) for index, w in labels]
                          + [(index | r_bit, w * c_right) for index, w in labels])
            else:
                rest *= c_left + c_right
    for spec in product:
        labels = [(index, w) for index, w in labels if _holds(spec, index, n)]
    return sum((w for _, w in labels), 0j) * rest


def _format_number(x: float) -> str:
    # integers print in full below 2**53 and in shortest round-trip form above
    if x.is_integer():
        return str(int(x)) if abs(x) < 2**53 else repr(x)
    return format(x, ".6g")


def _format_coefficient(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _format_number(z.real)
    if z.real == 0.0:
        return f"{_format_number(z.imag)}i"
    sign = "+" if z.imag > 0 else "-"
    return f"({_format_number(z.real)}{sign}{_format_number(abs(z.imag))}i)"


@dataclass(frozen=True)
class HamiltonianSpec:
    """A weighted sum of correlation projectors.

    terms holds (coefficient, projector) pairs; all projectors must act
    on the same particle count, which ``n_particles`` pins down even
    when the term list is empty.
    """

    terms: tuple[tuple[complex, ProjectorSpec], ...]
    n_particles: int

    def __post_init__(self):
        object.__setattr__(
            self, "terms",
            tuple((_as_number(c, "coefficient"), p) for c, p in self.terms))
        if not isinstance(self.n_particles, int) or not 1 <= self.n_particles <= MAX_PARTICLES:
            raise InvalidArgumentError(f"n_particles must lie in 1..{MAX_PARTICLES}")
        for _, p in self.terms:
            if p.n_particles != self.n_particles:
                raise InvalidArgumentError(
                    f"term {p.label()} acts on {p.n_particles} particles, expected {self.n_particles}")

    @classmethod
    def of(cls, terms: Iterable[tuple[complex, ProjectorSpec]],
           n_particles: int | None = None) -> "HamiltonianSpec":
        terms = tuple(terms)
        if n_particles is None:
            if not terms:
                raise InvalidArgumentError("empty term list needs an explicit n_particles")
            n_particles = terms[0][1].n_particles
        return cls(terms, n_particles)

    def label(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for coeff, proj in self.terms:
            if coeff == 1:
                parts.append(proj.label())
            else:
                parts.append(f"{_format_coefficient(coeff)}*{proj.label()}")
        return " + ".join(parts)


@_quiet
def build_hamiltonian(spec: HamiltonianSpec) -> Operator:
    """Realize a weighted projector sum as one diagonal, adding the terms in
    order to zeros; an empty term list gives the zero operator."""
    n = spec.n_particles
    index = np.arange(2**n)
    total = np.zeros(2**n, dtype=np.complex128)
    for coeff, proj in spec.terms:
        total += _holds(proj, index, n).astype(np.complex128) * coeff
    return Operator._of(total, BOX_LABELS)  # a non-finite sum stays non-finite


def _max_entry(arr: np.ndarray) -> float:
    """``Operator.max_entry`` of a diagonal or matrix computed from an operator's
    entries, refused as Operator arithmetic refuses it if overflow left an entry
    non-finite. A finite entry can still have an infinite magnitude."""
    largest = float(np.abs(arr).max())
    if not math.isfinite(largest) and not np.isfinite(arr).all():
        raise InvalidAmplitudesError(f"{_entries_what(arr)} must be finite")
    return largest


def _hermitian_defect(data: np.ndarray) -> float:
    return _max_entry(data - data.conj().T)


def _idempotency_defect(data: np.ndarray) -> float:
    # one check of the difference suffices: a non-finite square stays non-finite
    return _max_entry((data * data if data.ndim == 1 else data @ data) - data)


def _is_projector(data: np.ndarray, tol: float) -> bool:
    return _hermitian_defect(data) <= tol and _idempotency_defect(data) <= tol


def _are_orthogonal(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    # both products even on diagonals: numpy's vectorized complex product need
    # not round a*b and b*a alike
    a, b = _operand_arrays(a, b)
    product = np.multiply if a.ndim == 1 else np.matmul
    return _max_entry(product(a, b)) <= tol and _max_entry(product(b, a)) <= tol


@_quiet
def is_hermitian(op: Operator, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Whether the operator equals its own adjoint, max-entry norm."""
    return _hermitian_defect(op._data) <= tol


@_quiet
def idempotency_defect(op: Operator) -> float:
    """Max-entry norm of op@op - op; zero for exact projectors."""
    return _idempotency_defect(op._data)


@_quiet
def is_projector(op: Operator, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Hermitian and idempotent within ``tol`` (max-entry norm on both checks)."""
    return _is_projector(op._data, tol)


@_quiet
def are_orthogonal(a: Operator, b: Operator, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Whether both products a@b and b@a vanish within ``tol``."""
    return _are_orthogonal(a._data, b._data, tol)


@_quiet
def is_resolution_of_identity(projectors: Iterable[Operator],
                              tol: float = DEFAULT_TOLERANCE) -> bool:
    """Whether the operators are mutually orthogonal projectors summing to one.

    Accepts any iterable of operators, including a
    :class:`~twobox.engine.MeasurementSet`.
    """
    arrays = [op._data for op in projectors]
    if not arrays:
        raise InvalidArgumentError("resolution check needs at least one operator")
    total = arrays[0]
    for data in arrays[1:]:  # summed in order, as Operator addition would
        total, data = _operand_arrays(total, data)
        total = _computed(total + data, _entries_what(total))
    total, identity = _operand_arrays(total, np.ones(total.shape[0], dtype=np.complex128))
    return (all(_is_projector(data, tol) for data in arrays)
            and all(_are_orthogonal(a, b, tol) for i, a in enumerate(arrays) for b in arrays[i + 1:])
            and _max_entry(total - identity) <= tol)


def _masks_resolve_identity(masks: Sequence[np.ndarray], tol: float) -> bool:
    """:func:`is_resolution_of_identity` for the diagonal operators with these
    0/1 masks, computed exactly on their integer sum, which misses the
    identity by max |count - 1|. Every other defect is no larger: a 0/1
    diagonal has hermitian and idempotency defects 0, and two masks that
    overlap have a product with entry 1 where the count is 2 or more."""
    counts = np.sum(masks, axis=0)
    return max(counts.max() - 1, 1 - counts.min()) <= tol


def _mask_sum_is_projector(masks: Sequence[np.ndarray], tol: float) -> bool:
    """:func:`is_projector` for the sum of the diagonal operators with these
    0/1 masks, computed exactly: its idempotency defect is max |count^2 - count|,
    and its hermitian defect, 0, is no larger."""
    counts = np.sum(masks, axis=0)
    return (counts * (counts - 1)).max() <= tol


def relabel_to_spin(value: Ket | UnnormalizedKet | Operator):
    """Present a box-labeled value in spin language: L as up, R as down,
    the box superpositions as x and y spin states. Amplitudes and entries
    are carried over untouched."""
    if isinstance(value, (Ket, UnnormalizedKet, Operator)):
        return value.with_labels(SPIN_LABELS)
    raise InvalidArgumentError(f"cannot relabel {type(value).__name__}")

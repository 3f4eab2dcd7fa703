"""Correlation projectors on the n-particle two-box space.

Every projector here is diagonal in the box basis, so each is built and
stored as its 0/1 diagonal. Bit n - k of a basis index is 1 exactly when
particle k sits in box R, and each spec is one pattern (``_pattern``): a
mask of the bits it reads and the values it allows there, so the spec holds
at ``index`` when ``index & mask`` is one of them.

Specs are answered on their label classes in plain Python, with no numpy, by
one object (:class:`_LabelClasses`), whose docstring states that route. The
operators these specs build, and the structural checks of built operators,
are in :mod:`twobox.dense`.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Sequence
from itertools import compress

from .errors import InvalidAmplitudesError, InvalidArgumentError, expect, quoted
from .hilbert import _as_number, _check_particle_count, _forward, _norm_sq, _Record

# the fields each projector kind names besides n_particles; it takes no others
_KIND_FIELDS = {
    "box": ("particle", "box"),
    "pair_same": ("pair",),
    "pair_diff": ("pair",),
    "all_same": (),
    "sd": ("pair", "other"),
}
PROJECTOR_KINDS = tuple(_KIND_FIELDS)


def _check_particle(index: int, n_particles: int, what: str) -> None:
    if not isinstance(index, int) or isinstance(index, bool):
        raise InvalidArgumentError(f"{what} must be an integer, got {quoted(index)}")
    if not 1 <= index <= n_particles:
        raise InvalidArgumentError(f"{what} {quoted(index)} out of range 1..{n_particles}")


class ProjectorSpec(_Record):
    """A symbolic description of one correlation projector.

    kind
        "box"       one particle sits in a named box
        "pair_same" two particles share a box
        "pair_diff" two particles occupy different boxes
        "all_same"  every particle shares one box
        "sd"        a pair shares a box while a marked third particle
                    occupies the other one
    """

    def __init__(self, kind: str, n_particles: int, particle: int | None = None,
                 box: str | None = None, pair: tuple[int, int] | None = None,
                 other: int | None = None):
        if kind not in PROJECTOR_KINDS:
            raise InvalidArgumentError(f"unknown projector kind {quoted(kind)}")
        _check_particle_count(n_particles)
        if kind == "box":
            _check_particle(particle, n_particles, "particle")
            if box not in ("L", "R"):
                raise InvalidArgumentError(f"box must be 'L' or 'R', got {quoted(box)}")
        elif kind in ("pair_same", "pair_diff", "sd"):
            if n_particles < (3 if kind == "sd" else 2):
                raise InvalidArgumentError(
                    f"{kind} needs at least {'three' if kind == 'sd' else 'two'} particles")
            try:
                i, j = pair
            except (TypeError, ValueError):
                raise InvalidArgumentError(
                    f"{kind} needs a pair of two particles, got {quoted(pair)}") from None
            _check_particle(i, n_particles, "pair member")
            _check_particle(j, n_particles, "pair member")
            if i == j:
                raise InvalidArgumentError("pair members must be distinct")
            pair = (j, i) if i > j else (i, j)
            if kind == "sd":
                _check_particle(other, n_particles, "other particle")
                if other in pair:
                    raise InvalidArgumentError("the marked particle must differ from the pair")
        elif kind == "all_same":
            if n_particles < 2:
                raise InvalidArgumentError("all_same needs at least two particles")
        self.__dict__.update(kind=kind, n_particles=n_particles, particle=particle, box=box,
                             pair=pair, other=other)
        for name in self.__match_args__[2:]:  # the declared fields after kind and n_particles
            if self.__dict__[name] is not None and name not in _KIND_FIELDS[kind]:
                raise InvalidArgumentError(f"{kind} takes no {name}")

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


def _pattern(spec: ProjectorSpec) -> tuple[int, tuple[int, ...]]:
    """``(mask, allowed)`` of ``spec`` on its n particles: it holds at basis index
    ``index`` exactly when ``index & mask`` is in ``allowed``. ``mask`` has the
    bits of the particles the spec names (of every particle for ``all_same``)."""
    n = spec.n_particles
    if spec.kind == "box":
        bit = 1 << (n - spec.particle)
        return bit, ((0,) if spec.box == "L" else (bit,))
    if spec.kind == "all_same":
        every = (1 << n) - 1
        return every, (0, every)
    bit_i, bit_j = 1 << (n - spec.pair[0]), 1 << (n - spec.pair[1])
    if spec.kind == "pair_same":
        return bit_i | bit_j, (0, bit_i | bit_j)
    if spec.kind == "pair_diff":
        return bit_i | bit_j, (bit_i, bit_j)
    bit_o = 1 << (n - spec.other)  # sd: the pair in one box, the marked particle in the other
    return bit_i | bit_j | bit_o, (bit_o, bit_i | bit_j)


class _LabelClasses:
    """The label classes of specs on n particles, weighted per particle: the
    one place that decides which labels specs cannot tell apart, and the route
    by which every spec-built question is answered in plain Python, with no
    2**n array and no numpy.

    A spec tests only the boxes of the particles it names (T), and
    ``all_same`` also whether the others are all in L, all in R or mixed. So
    every spec holds or fails on a whole class of labels that agree on T (and
    on that split, if ``all_same`` is among the specs): at most 3 * 2**|T|
    classes, each tested at one representative index by ``_column``, the one
    test of specs at labels: one pattern per product, one membership test per
    class. ``weights[k - 1]`` holds (c_k(L), c_k(R)), and the weight of a class
    is the sum over its labels of prod_k c_k(b_k): the product over T of the
    class's factors, times prod_k (c_k(L) + c_k(R)) over the other particles
    (with the split, their all-L product, their all-R product or what remains).
    With unit weights a class weighs its size.

    The classes depend on the specs only through their partition, the pair
    (bits of T, whether the split is asked), so each partition is walked once
    per object (``of``) and its lists are shared by every amplitude and table
    that asks for it; no caller changes them.

    A scenario run makes one object from its product pre- and postselection
    (``between``), with c_k(b) = conj(post_k[b]) pre_k[b] formed with Python's
    complex product, and keeps <post|pre> as ``overlap``. Every query built
    from projector specs is answered on it. An amplitude (``amplitude``) is the
    summed weight, in class order, of the classes where its product's column
    holds; a transition element is the sum over its terms of coefficient times
    amplitude. A measurement set, a member sum and the cross-check of a
    weak-value sum read one column per product (``table``). A set
    of 0/1 products is judged complete from how many hold on each class
    (``_counts_resolve_identity``), which is what ``_resolves_identity``
    returns on its 0/1 columns, and a member sum is ``_is_projector`` or not.

    The structural checks (``_is_hermitian``, ``_idempotency_defect``,
    ``_is_projector``, ``_are_orthogonal``, ``_resolves_identity``) run on the
    class diagonals of weighted sums, one entry per class of unit weights of the
    sums' own terms, formed term by term (``_class_diagonals``, ``_entries``):
    for the predicate queries, which ``twobox check`` asks as well, and to refuse
    a transition element whose built operator would overflow. An ``eigenstate``
    predicate forms the 2**n amplitudes of its state in plain Python
    (``hilbert._product_amplitudes``, ``_explicit_amplitudes``) and its residual
    from each label's entry, formed term by term (``_eigenstate_residual``). The
    values match :mod:`twobox.dense` up to rounding in the last bits.
    """

    def __init__(self, weights: Sequence[tuple[complex, complex]]):
        self.n = len(weights)
        self.weights = weights
        self._walked = {}  # partition -> (representative indices, class weights)

    @classmethod
    def between(cls, pre: Sequence[tuple[complex, complex]],
                post: Sequence[tuple[complex, complex]]) -> "_LabelClasses":
        """The classes of a run from its normalized (cL, cR) pairs, with
        <post|pre>, the empty product's amplitude, kept as ``overlap``."""
        classes = cls([(post_l.conjugate() * pre_l, post_r.conjugate() * pre_r)
                       for (pre_l, pre_r), (post_l, post_r) in zip(pre, post)])
        classes.overlap = classes.amplitude(())
        return classes

    def of(self, specs: Iterable[ProjectorSpec]) -> tuple[list[int], list[complex]]:
        """The label classes of ``specs``, as two lists in class order: a
        representative basis index and the weight of each class."""
        touched, split = 0, False  # the bits of the particles in T; whether all_same is asked
        for spec in specs:
            if spec.kind == "all_same":
                split = True
            else:
                touched |= _pattern(spec)[0]
        partition = touched, split and touched != (1 << self.n) - 1
        if partition not in self._walked:
            self._walked[partition] = self._walk(*partition)
        return self._walked[partition]

    def _walk(self, touched: int, split: bool) -> tuple[list[int], list[complex]]:
        indices, ws = [0], [1]
        left = right = rest = 1
        bit = 1 << self.n
        for c_left, c_right in self.weights:  # particle k has bit n - k
            bit >>= 1
            if touched & bit:  # every class so far splits into its L and its R half
                for t in range(len(indices)):
                    indices.append(indices[t] | bit)
                    ws.append(ws[t] * c_right)
                    ws[t] *= c_left
            else:
                rest *= c_left + c_right
                if split:
                    left, right = left * c_left, right * c_right
        if split:
            untouched = ((1 << self.n) - 1) ^ touched
            first = 1 << (untouched.bit_length() - 1)  # the first untouched particle
            splits = [(0, left), (untouched, right)]
            if untouched != first:  # the mixed labels: all of them but the two uniform ones
                splits.append((first, rest - left - right))
            indices = [index | bits for index in indices for bits, _ in splits]
            ws = [w * v for w in ws for _, v in splits]
        else:
            ws = [w * rest for w in ws]
        return indices, ws

    def amplitude(self, product: Sequence[ProjectorSpec]) -> complex:
        """<post|P|pre> for the product P of specs: the weights of the classes
        of P on which every spec of P holds, added in class order. The empty
        product gives <post|pre>."""
        indices, ws = self.of(product)
        total = 0j
        for w in compress(ws, _column(product, indices)):
            total += w
        return total

    def table(self, products: Sequence[Sequence[ProjectorSpec]]):
        """Per label class of the products: its weight and whether each
        product holds there."""
        indices, ws = self.of([spec for p in products for spec in p])
        columns = [_column(product, indices) for product in products]
        return [(w, list(holds)) for w, holds in zip(ws, zip(*columns))]


def _column(product: Sequence[ProjectorSpec], indices: Iterable[int]) -> list[bool]:
    """Whether every spec of ``product`` holds at each basis index of ``indices``,
    as one pattern: the first spec's ``_pattern`` with each further spec folded
    in (the masks ORed, and each two values joined that agree on the bits both
    read). The empty product holds everywhere, a contradictory one nowhere."""
    mask, allowed = _pattern(product[0]) if product else (0, (0,))
    for spec in product[1:]:
        bits, values = _pattern(spec)
        allowed = {a | v for a in allowed for v in values if a & bits == v & mask}
        mask |= bits
    return [index & mask in allowed for index in indices]


_DIGITS = 6  # significant digits of a number in a label, a table or a check


def _format_number(x: float) -> str:
    # integers print in full below 2**53 and in shortest round-trip form above
    if x.is_integer():
        return str(int(x)) if abs(x) < 2**53 else repr(x)
    return f"{x:.{_DIGITS}g}"


def _format_coefficient(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _format_number(z.real)
    if z.real == 0.0:
        return f"{_format_number(z.imag)}i"
    sign = "+" if z.imag > 0 else "-"
    return f"({_format_number(z.real)}{sign}{_format_number(abs(z.imag))}i)"


def _terms(terms) -> tuple[tuple[complex, ProjectorSpec], ...]:
    """(coefficient, ProjectorSpec) terms, each checked where it enters."""
    checked = []
    for term in expect(terms, Iterable, "an iterable of (coefficient, ProjectorSpec) terms"):
        try:
            coeff, proj = term
        except (TypeError, ValueError):
            raise InvalidArgumentError(
                f"a term must be a (coefficient, ProjectorSpec) pair, got {quoted(term)}") from None
        checked.append((_as_number(coeff, "coefficient"),
                        expect(proj, ProjectorSpec, "a ProjectorSpec")))
    return tuple(checked)


class HamiltonianSpec(_Record):
    """A weighted sum of correlation projectors.

    terms holds (coefficient, projector) pairs; all projectors must act
    on the same particle count, which ``n_particles`` pins down even
    when the term list is empty.
    """

    def __init__(self, terms: tuple[tuple[complex, ProjectorSpec], ...], n_particles: int):
        terms = _terms(terms)
        _check_particle_count(n_particles)
        for _, p in terms:
            if p.n_particles != n_particles:
                raise InvalidArgumentError(
                    f"term {p.label()} acts on {p.n_particles} particles, expected {n_particles}")
        self.__dict__.update(terms=terms, n_particles=n_particles)

    @classmethod
    def of(cls, terms: Iterable[tuple[complex, ProjectorSpec]],
           n_particles: int | None = None) -> "HamiltonianSpec":
        terms = _terms(terms)
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


def _entries(terms: Sequence[tuple[complex, ProjectorSpec]],
             indices: Sequence[int]) -> list[complex]:
    """The diagonal entries at the basis indices ``indices`` of the weighted
    projector sum of ``terms``, each formed as
    :func:`~twobox.dense.build_hamiltonian` forms it: term by term, in order."""
    entries = [0j] * len(indices)
    for coeff, proj in terms:
        on, off = (1 + 0j) * coeff, 0j * coeff  # what a held and a failed label add
        entries = [total + (on if holds else off)
                   for total, holds in zip(entries, _column((proj,), indices))]
    return entries


def _class_diagonals(hamiltonians: Sequence[HamiltonianSpec]) -> list[list[complex]]:
    """The diagonals of weighted projector sums on the same n particles, one
    entry (:func:`_entries`) per label class of all their terms, in the order
    :class:`_LabelClasses` gives the classes. A diagonal with an entry that is
    not finite is refused as :func:`~twobox.dense.build_hamiltonian` refuses it.
    """
    n = hamiltonians[0].n_particles
    indices, _ = _LabelClasses([(1, 1)] * n).of([proj for h in hamiltonians for _, proj in h.terms])
    diagonals = []
    for h in hamiltonians:
        entries = _entries(h.terms, indices)
        _check_entries(entries)
        diagonals.append(entries)
    return diagonals


def _check_entries(entries: Sequence[complex]) -> None:
    if not all(map(cmath.isfinite, entries)):
        raise InvalidAmplitudesError("operator diagonal must be finite")


# the refusal of a structural check whose own arithmetic leaves the float range
_CHECK_OVERFLOW = "structural check overflows the float range"


def _class_max(entries: Sequence[complex]) -> float:
    """``Operator.max_entry`` of a diagonal a structural check forms from finite
    class entries, refused as the check of built operators refuses it if an
    entry is not finite."""
    if not all(map(cmath.isfinite, entries)):
        raise InvalidAmplitudesError(_CHECK_OVERFLOW)
    try:
        return max(map(abs, entries))
    except OverflowError:  # finite parts whose magnitude exceeds the float range
        return math.inf


# The structural checks of weighted projector sums, on their class diagonals
# (:func:`_class_diagonals`) with no 2**n array and no numpy. Every entry of a
# diagonal equals its class's entry, so each check returns what the same check
# of the built operators returns (:func:`~twobox.dense.is_hermitian` and so on), and raises
# what it raises. For real coefficients the values are the same bits, and on
# 0/1 holds they are exact integers. Complex ones may differ in the last bits,
# as numpy's complex product may be fused and Python's is not; for the same
# reason one product decides orthogonality here, as Python's commutes bit for bit.

def _is_hermitian(d: Sequence[complex], tol: float) -> bool:
    return _class_max([z - z.conjugate() for z in d]) <= tol


def _idempotency_defect(d: Sequence[complex]) -> float:
    return _class_max([z * z - z for z in d])


def _is_projector(d: Sequence[complex], tol: float) -> bool:
    # the defect of a diagonal that is not hermitian is not formed: it may overflow
    return _is_hermitian(d, tol) and _idempotency_defect(d) <= tol


def _are_orthogonal(a: Sequence[complex], b: Sequence[complex], tol: float) -> bool:
    return _class_max([x * y for x, y in zip(a, b)]) <= tol


def _resolves_identity(ds: Sequence[Sequence[complex]], tol: float) -> bool:
    total = ds[0]
    for entries in ds[1:]:
        total = [a + b for a, b in zip(total, entries)]
        _check_entries(total)
    return (all(_is_projector(d, tol) for d in ds)
            and all(_are_orthogonal(a, b, tol) for i, a in enumerate(ds) for b in ds[i + 1:])
            and _class_max([z - 1 for z in total]) <= tol)


def _counts_resolve_identity(counts: Sequence[int], tol: float) -> bool:
    """:func:`_resolves_identity` of the 0/1 holds of products (``_LabelClasses.table``)
    from how many products hold on each class: each product is then hermitian
    and idempotent with defect 0, two are orthogonal unless a class holds both
    (the largest entry of their product is then 1), and the sum is ``counts``."""
    return tol >= 0 and (tol >= 1 or max(counts) <= 1) and all(abs(c - 1) <= tol for c in counts)


def _finite_eigenvalue(eigenvalue) -> complex:
    if not cmath.isfinite(eigenvalue := complex(eigenvalue)):
        raise InvalidArgumentError("eigenvalue must be finite")
    return eigenvalue


def _eigenstate_residual(h: HamiltonianSpec, amplitudes: Sequence[complex],
                         eigenvalue: complex) -> float:
    """:func:`~twobox.dense.eigenstate_residual` of ``h`` on the state with
    these 2**n checked amplitudes: each label's entry is formed term by term
    (:func:`_entries`), the bits its class has, and an image entry that is not
    finite is refused as the built operator's image is. The norm is summed
    exactly (``hilbert._norm_sq``), so it may differ from numpy's in the last bit."""
    eigenvalue = _finite_eigenvalue(eigenvalue)
    image = _entries(h.terms, range(len(amplitudes)))
    for index, a in enumerate(amplitudes):
        image[index] *= a
    if not all(map(cmath.isfinite, image)):
        raise InvalidAmplitudesError("amplitudes must be finite")
    return math.sqrt(_norm_sq([z - eigenvalue * a for z, a in zip(image, amplitudes)]))


__getattr__, __dir__ = _forward(__name__, (
    "build_projector", "build_hamiltonian", "is_hermitian", "idempotency_defect", "is_projector",
    "are_orthogonal", "is_resolution_of_identity", "relabel_to_spin"))

"""Quantities conditioned on both a pre- and a postselected state.

The conditional probability of outcome k among a complete projective
set follows the standard two-state rule

    P(k) = |<post|P_k|pre>|^2 / sum_j |<post|P_j|pre>|^2

and the weak value of an operator A is <post|A|pre> / <post|pre>, whose
numerator is exactly the conditional amplitude. Subset questions come
in two flavors: the detailed (incoherent) probability adds squared
member amplitudes, the global (coherent) probability squares the
amplitude of the summed projector, and the two genuinely differ.

The public functions take built operators and any states; they serve
library callers and are the reference in the tests. A scenario run
computes the same quantities on the label classes of its specs between
the factors of its product selection (:mod:`twobox.scenarios`). Both go through the rules written once here
over plain amplitudes: the ABL normalization (``_abl_result``), the
weak-value denominator (``_weak_denominator``) and the linearity bound
(``_linearity_checked``).
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from typing import Union

from .errors import (
    DimensionMismatchError,
    IllegitimateQuestionError,
    ImpossiblePostselectionError,
    IncompleteMeasurementError,
    InvalidArgumentError,
    LinearityCheckError,
    NotAProjectorError,
    OrthogonalSelectionError,
    expect,
    expect_tolerance,
)
from .hilbert import (DEFAULT_TOLERANCE, Ket, Operator, _Record, _operator, _operator_list, _state,
                      abs2, inner, matrix_element)
from .projectors import is_projector, is_resolution_of_identity


def vanishes(value: complex, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Whether a reported number counts as zero at the given tolerance."""
    return _vanishes(value, expect_tolerance(tol))


def _vanishes(value: complex, tol: float) -> bool:
    """:func:`vanishes` at a tolerance already checked, as a scenario run checks
    its tolerance once for all its values."""
    try:
        return abs(value) <= tol
    except OverflowError:  # finite parts whose magnitude exceeds the float range
        return False


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


class AblResult(_Record):
    """Amplitudes and conditional probabilities for one complete measurement."""

    def __init__(self, amplitudes: tuple[complex, ...], probabilities: tuple[float, ...],
                 normalization: float):
        self.__dict__.update(amplitudes=amplitudes, probabilities=probabilities,
                             normalization=normalization)


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
    expect_tolerance(tol)
    if measurement.dim != _selection(selection).dim:
        raise DimensionMismatchError(
            f"measurement dimension {measurement.dim} does not match the selection dimension {selection.dim}")
    if not is_resolution_of_identity(measurement.projectors, tol):
        raise IncompleteMeasurementError("incomplete measurement")
    return _abl_result([abl_amplitude(selection, op) for op in measurement], tol)


def _abl_result(amplitudes: Sequence[complex], tol: float) -> AblResult:
    """The ABL rule on the outcome amplitudes of a complete measurement.

    Raises ImpossiblePostselectionError when the squared amplitudes sum
    to at most tol**2.
    """
    amplitudes = tuple(amplitudes)
    weights = [abs2(a) for a in amplitudes]
    normalization = sum(weights)
    if normalization <= tol * tol:
        raise ImpossiblePostselectionError("impossible postselection")
    probabilities = tuple(w / normalization for w in weights)
    return AblResult(amplitudes, probabilities, normalization)


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


def _weak_denominator(overlap: complex, tol: float) -> complex:
    """<post|pre> as the denominator of weak values, refused when zero or |<post|pre>| <= tol.

    Zero is refused whatever ``tol``, since a library caller may pass a negative one.
    """
    if overlap == 0 or abs(overlap) <= tol:
        raise OrthogonalSelectionError("orthogonal pre/postselection")
    return overlap


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


def _linearity_checked(total: complex, via_sum: complex, scale: float, ulps: int) -> complex:
    """``total`` once it agrees with ``via_sum`` within ``ulps`` ulps of ``scale``.

    Raises LinearityCheckError otherwise.
    """
    if abs(total - via_sum) > ulps * sys.float_info.epsilon * scale:
        raise LinearityCheckError(
            f"weak value linearity cross-check failed: {total!r} vs {via_sum!r}")
    return total


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
    return sum(abs2(abl_amplitude(selection, op)) for op in ops)


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

    Numerically this is just a sandwiched element; reports flag it as a
    transition quantity because it answers "can H drive pre to post",
    not "was some property present in between".
    """
    if _operator(hamiltonian).dim != _selection(selection).dim:
        raise DimensionMismatchError(
            f"operator dimension {hamiltonian.dim} does not match the selection dimension {selection.dim}")
    return matrix_element(selection.post, hamiltonian, selection.pre)

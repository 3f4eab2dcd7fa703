"""Quantities conditioned on both a pre- and a postselected state.

The conditional probability of outcome k among a complete projective
set follows the standard two-state rule

    P(k) = |<post|P_k|pre>|^2 / sum_j |<post|P_j|pre>|^2

and the weak value of an operator A is <post|A|pre> / <post|pre>, whose
numerator is exactly the conditional amplitude. Subset questions come
in two flavors: the detailed (incoherent) probability adds squared
member amplitudes, the global (coherent) probability squares the
amplitude of the summed projector, and the two genuinely differ.

A scenario run computes these quantities on the label classes of its specs
between the factors of its product selection (:mod:`twobox.scenarios`), and
the functions on built operators (:mod:`twobox.dense`) compute them on
arrays. Both go through the rules written once here over plain amplitudes:
the ABL normalization (``_abl_result``) with its sum of squared magnitudes
(``_sum_abs2``), the weak-value denominator (``_weak_denominator``) and the
linearity bound (``_linearity_checked``).
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence

from .errors import (ImpossiblePostselectionError, InvalidArgumentError, LinearityCheckError,
                     OrthogonalSelectionError, expect_tolerance, quoted)
from .hilbert import DEFAULT_TOLERANCE, _forward, _Record, abs2


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
    except TypeError:  # no magnitude, or one that does not compare with a number
        raise InvalidArgumentError(f"value must be a number, got {quoted(value)}") from None


class AblResult(_Record):
    """Amplitudes and conditional probabilities for one complete measurement."""

    def __init__(self, amplitudes: tuple[complex, ...], probabilities: tuple[float, ...],
                 normalization: float):
        self.__dict__.update(amplitudes=amplitudes, probabilities=probabilities,
                             normalization=normalization)


def _sum_abs2(amplitudes: Iterable[complex]) -> float:
    """The sum of |a|**2 added left to right from 0, as ``sum`` adds floats before
    Python 3.12 and does not after: so report bits do not depend on the version."""
    total = 0
    for a in amplitudes:
        total += abs2(a)
    return total


def _abl_result(amplitudes: Sequence[complex], tol: float) -> AblResult:
    """The ABL rule on the outcome amplitudes of a complete measurement.

    Raises ImpossiblePostselectionError when the squared amplitudes sum
    to at most tol**2.
    """
    amplitudes = tuple(amplitudes)
    normalization = _sum_abs2(amplitudes)
    if normalization <= tol * tol:
        raise ImpossiblePostselectionError("impossible postselection")
    probabilities = tuple(abs2(a) / normalization for a in amplitudes)
    return AblResult(amplitudes, probabilities, normalization)


def _weak_denominator(overlap: complex, tol: float) -> complex:
    """<post|pre> as the denominator of weak values, refused when zero or |<post|pre>| <= tol.

    Zero is refused whatever ``tol``, since a library caller may pass a negative one.
    """
    if overlap == 0 or abs(overlap) <= tol:
        raise OrthogonalSelectionError("orthogonal pre/postselection")
    return overlap


def _linearity_checked(total: complex, via_sum: complex, scale: float, ulps: int) -> complex:
    """``total`` once it agrees with ``via_sum`` within ``ulps`` ulps of ``scale``.

    Raises LinearityCheckError otherwise.
    """
    if abs(total - via_sum) > ulps * sys.float_info.epsilon * scale:
        raise LinearityCheckError(
            f"weak value linearity cross-check failed: {total!r} vs {via_sum!r}")
    return total


__getattr__, __dir__ = _forward(__name__, (
    "PrePostSelection", "MeasurementSet", "ProjectorSet", "abl_amplitude", "abl_probabilities",
    "weak_value", "weak_value_sum", "detailed_probability", "global_probability",
    "transition_element"))

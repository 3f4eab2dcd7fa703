"""Exception types shared across the package."""

import numbers


class TwoBoxError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidArgumentError(TwoBoxError, ValueError):
    """A library call got an argument it cannot use: an unknown name, an index
    out of range, a malformed specification."""


class DimensionMismatchError(TwoBoxError, ValueError):
    """Operands live on spaces of different dimension."""


class InvalidAmplitudesError(TwoBoxError, ValueError):
    """Numbers that do not form a state or operator: wrong shape, not finite, not normalized."""


class UnnormalizableStateError(TwoBoxError, ValueError):
    """A zero vector cannot be scaled to a unit state."""


class IncompleteMeasurementError(TwoBoxError, ValueError):
    """The projector set does not resolve the identity."""


class ImpossiblePostselectionError(TwoBoxError, ValueError):
    """Every outcome amplitude vanishes, so conditioning is undefined."""


class OrthogonalSelectionError(TwoBoxError, ValueError):
    """Pre- and postselected states have zero overlap."""


class NotAProjectorError(TwoBoxError, ValueError):
    """An operator required to be a projector is not one."""


class IllegitimateQuestionError(TwoBoxError, ValueError):
    """The summed operator is not a projector, so the joint question is meaningless."""


class LinearityCheckError(TwoBoxError, ArithmeticError):
    """Two routes to the same weak-value sum disagree by more than rounding."""


class ScenarioNotFoundError(TwoBoxError, LookupError):
    """No builtin scenario carries the requested name."""


class ScenarioFileError(TwoBoxError, ValueError):
    """A scenario document failed schema or semantic validation."""


class ExpressionError(TwoBoxError, ValueError):
    """An operator expression failed to parse."""


QUOTE_LIMIT = 80  # the characters of an input value an error message quotes


def capped(text: str) -> str:
    """``text`` cut to QUOTE_LIMIT characters and ``...``, so a message quoting
    an input stays one short line whatever the input holds."""
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "..."


def quoted(value) -> str:
    """``repr(value)``, capped."""
    return capped(repr(value))


def expect(value, kind: type, what: str):
    """``value`` if it is a ``kind``, else an InvalidArgumentError naming ``what``:
    the one check a library argument of that kind gets where it enters."""
    if not isinstance(value, kind):
        raise InvalidArgumentError(f"expected {what}, got {type(value).__name__}")
    return value


def expect_tolerance(tol):
    """``tol`` as a tolerance, or an InvalidArgumentError if it is not a real number
    other than NaN: the one check of a tolerance argument. A negative one is allowed.
    An int or a float is kept as given, any other real runs as its ``float()`` (so
    verdicts are bools), and one beyond the float range is refused. A float skips the
    ``numbers.Real`` test, an ABC check that costs several times the comparison it guards."""
    if (type(tol) is not float and not isinstance(tol, numbers.Real)) or tol != tol:  # NaN
        raise InvalidArgumentError(f"tolerance must be a real number, got {quoted(tol)}")
    try:
        return tol if type(tol) in (int, float) else float(tol)
    except OverflowError:  # a Fraction beyond the float range, say
        raise InvalidArgumentError(f"tolerance beyond float range: {quoted(tol)}") from None

"""Exception types shared across the package."""


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

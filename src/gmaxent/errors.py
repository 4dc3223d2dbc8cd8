"""Exception types shared across the package."""


class GmaxentError(Exception):
    """Base class for all package errors."""


class NumericalFailure(GmaxentError):
    """An iterative numerical routine failed to converge."""


class ModelMismatch(GmaxentError):
    """Operands belong to different model spaces."""


class NoValues(GmaxentError):
    """Observable outcomes carry no real values, so mean values are undefined."""


class DegenerateInput(GmaxentError):
    """Input is degenerate (zero vector, zero functional, empty family)."""


class NotAProjection(GmaxentError):
    """Supplied operator is not idempotent."""


class NotOrthogonal(GmaxentError):
    """Supplied projection family is not pairwise orthogonal."""


class InvalidState(GmaxentError):
    """Coordinates violate the state-space invariants (normalization or cone)."""


class InvalidEffect(GmaxentError):
    """Functional leaves the [0, 1] probability range on some state."""


class InvalidObservable(GmaxentError):
    """Outcome family does not resolve the unit functional."""


class InvalidTarget(GmaxentError):
    """Probability target outside [0, 1]."""


class UnsupportedRepresentation(GmaxentError):
    """Region lacks the representation (H or V) the operation needs."""


class Unsupported(GmaxentError):
    """Instance exceeds a fixed desk-scale cap, or the oracle or enumeration does not cover it."""


class IncompatibleObjective(GmaxentError):
    """Entropy objective does not match the model kind."""

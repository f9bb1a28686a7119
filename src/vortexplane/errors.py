"""Exception taxonomy shared across the toolkit.

Callers that drive the CLI map ParameterDomainError to a usage failure and
everything else derived from NumericalError to a numerical failure.
"""


class VortexPlaneError(Exception):
    """Base class for all package errors."""


class ParameterDomainError(VortexPlaneError, ValueError):
    """A model or solver parameter lies outside its admissible range."""


class NumericalError(VortexPlaneError):
    """Base class for runtime numerical failures."""


class HypothesisViolationError(NumericalError):
    """A hypothesis needed by an estimate failed on concrete data.

    Examples: no sign change where a zero is required, a fixed-point
    iterate leaving its invariant ball, a level set without the expected
    positive root.
    """


class ToleranceError(NumericalError):
    """A quadrature or refinement loop could not reach its tolerance."""


class FixedPointFailureError(NumericalError):
    """A fixed-point iteration exhausted its budget without converging."""


class NoBracketError(NumericalError):
    """A bisection was requested on endpoints with equal classification."""


class InfeasibleConstantsError(NumericalError):
    """The admissible interval for the contraction constants is empty."""

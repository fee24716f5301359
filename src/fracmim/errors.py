"""Exception hierarchy for the fracmim package.

Errors fall into three families that the CLI maps onto exit codes:
validation problems (bad parameters, grids, configs), numerical failures
(linear solves, quadrature non-convergence, diverging iterations), and
plain I/O errors (left to the builtin OSError).
"""


class FracmimError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(FracmimError):
    """Input violates a documented precondition or invariant."""


class ParameterError(ValidationError):
    """A model parameter violates the admissibility condition."""


class GridError(ValidationError):
    """A grid specification or grid-aligned quantity is invalid."""


class ConfigError(ValidationError):
    """An experiment configuration file cannot be parsed or is incomplete."""


class NumericalError(FracmimError):
    """A numerical procedure failed to produce a trustworthy result."""


class SolverError(NumericalError):
    """The implicit time-stepping solve broke down."""


class QuadratureError(NumericalError):
    """Contour quadrature did not converge to the requested tolerance."""


class InversionError(NumericalError):
    """The order-recovery iteration aborted; the message names where."""

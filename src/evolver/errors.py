"""Exception hierarchy shared by all evolver modules.

Every failure mode raised by the library derives from EvolverError so
callers (and the CLI) can distinguish numeric trouble from bugs.
"""


class EvolverError(Exception):
    """Base class for all library errors; slug names a class in a failed run's summary."""
    slug = "error"


class InvalidInputError(EvolverError):
    """Malformed numeric input: non-finite entries, bad shapes, dim out of range."""
    slug = "invalid-input"


class InvalidMetricError(InvalidInputError):
    """Metric matrix is not symmetric positive definite."""
    slug = "invalid-metric"


class PreconditionError(EvolverError):
    """A documented operation precondition does not hold (ordering, contraction, ...)."""
    slug = "precondition"


class SingularResolventError(EvolverError):
    """Resolvent or averaged-generator solve is singular or too ill conditioned."""
    slug = "singular-resolvent"


class ResourceLimitError(EvolverError):
    """Requested discretization exceeds the documented resource guard."""
    slug = "resource-guard"


class ConvergenceError(EvolverError):
    """An iterative solve failed to reach tolerance within its iteration budget."""
    slug = "no-convergence"

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateFixedPointError(ConvergenceError):
    """Newton solve hit a (numerically) singular Jacobian of the period map."""
    slug = "degenerate-fixed-point"


class InadmissibleRegionError(EvolverError):
    """A degree computation found the field vanishing (or nearly) on the boundary.

    point and value locate the worst boundary sample; boundary_min is |value|
    as the screen computed it.
    """
    slug = "inadmissible-region"

    def __init__(self, message, point=None, value=None, boundary_min=None):
        super().__init__(message)
        self.point = point
        self.value = value
        self.boundary_min = boundary_min


class DegenerateZeroError(EvolverError):
    """A zero located by the degree solver has a (numerically) singular Jacobian."""
    slug = "degenerate-zero"


class OracleFailureError(EvolverError):
    """A cross-check routine could not resolve its own discretization to tolerance."""
    slug = "oracle-failure"


class ConfigError(EvolverError):
    """CLI configuration violates the documented schema."""

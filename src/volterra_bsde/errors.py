"""Exception types shared across the package."""


class VolterraError(Exception):
    """Base class for all package errors."""


class DomainError(VolterraError, ValueError):
    """An argument lies outside the mathematically valid region."""


class QuadratureError(VolterraError, RuntimeError):
    """A singular quadrature failed to reach its tolerance.

    Attributes
    ----------
    estimate : float
        Best value obtained before giving up.
    error_estimate : float
        Achieved error estimate (difference of the last two refinements).
    """

    def __init__(self, message, estimate=float("nan"), error_estimate=float("inf")):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


class MonotonicityError(VolterraError, RuntimeError):
    """A variance curve, or the cubic through it, may decrease."""


class CurveConsistencyError(VolterraError, RuntimeError):
    """Integrating the variance rate does not reproduce the variance."""


class GrowthViolationError(VolterraError, ValueError):
    """A function exceeds its exponential growth budget on the sampled box."""


class ConvergenceError(VolterraError, RuntimeError):
    """Fixed-point iteration did not converge.

    Carries the sup-norm change history in ``history``.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


class InstabilityError(VolterraError, RuntimeError):
    """A time step amplified the solution beyond the stability guard."""


class PreconditionError(VolterraError, ValueError):
    """An operation precondition failed; message names the violating point."""


class ResourceBudgetError(VolterraError, RuntimeError):
    """A requested simulation exceeds the configured memory budget."""


class ConfigError(VolterraError, ValueError):
    """A configuration file is missing a key or holds an invalid value."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key

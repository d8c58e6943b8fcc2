"""Exception types raised across the package."""


class MemsPlateError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MemsPlateError):
    """Invalid, missing, or unknown configuration data."""


class NonConstantPermittivity(MemsPlateError):
    """Builtin boundary family requested with a spatially varying layer permittivity."""


class UnboundedGrowth(MemsPlateError):
    """Grid maximization of a growth constant keeps increasing under refinement."""


class SingularAssembly(MemsPlateError):
    """Element size underflowed; assembly would be singular."""


class LinearSolveFailed(MemsPlateError):
    """Linear solver did not reach the requested residual within its iteration cap."""


class MissingTrace(MemsPlateError):
    """Potential field has no trace at a plate node (its columns miss the node)."""


class InfeasiblePerturbation(MemsPlateError):
    """A perturbed state leaves the admissible set (or loses its strict gap)."""


class DescentFailed(MemsPlateError):
    """The descent stopped short of the stationarity tolerance.

    Carries the last iterate and its report so callers can inspect/record it.
    """

    def __init__(self, message, state=None, report=None):
        super().__init__(message)
        self.state = state
        self.report = report


class StalledDescent(DescentFailed):
    """Backtracking hit its floor before the stationarity tolerance was met."""


class MaxIterations(DescentFailed):
    """Outer iteration cap reached before convergence."""


class InvalidInterval(MemsPlateError):
    """Interval endpoints are out of range or in the wrong order."""


class MalformedState(MemsPlateError):
    """Persisted state misses a column or holds a value that is not a finite number."""


class IncompatibleState(MemsPlateError):
    """Persisted state does not match the configuration it is checked against."""

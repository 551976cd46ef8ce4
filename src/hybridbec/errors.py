"""Exception types shared across the simulator, and the input checks
that raise ConfigError.

The CLI maps these onto exit codes: config problems -> 2, solver
non-convergence -> 3, physical instability (collapse) -> 4, anything
else -> 5.
"""

import math
import numbers


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SimulationError):
    """Invalid configuration or parameter record."""


class ResonanceSingularityError(SimulationError):
    """Applied field too close to the resonant field to evaluate the
    field-dependent scattering length or conversion amplitude."""


class ConvergenceError(SimulationError):
    """Iterative solver failed to reach tolerance.

    Carries the last residual and iteration count so callers can report
    a meaningful diagnostic.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class CollapseError(SimulationError):
    """Attractive interaction drove the condensate width to the grid
    floor; no stable ground state at this particle number."""

    def __init__(self, message, width=None, iterations=None):
        super().__init__(message)
        self.width = width
        self.iterations = iterations


class DomainError(SimulationError):
    """Input outside the mathematical domain of a formula (wrong-sign
    scattering length, nonpositive trial frequency, nonpositive mode
    energy in a Bose factor, ...)."""


class BoundaryMinimumError(SimulationError):
    """Variational minimizer landed on the search-box boundary.

    Carries the offending point so the caller can widen the box.
    """

    def __init__(self, message, v=None, omega=None, energy=None):
        super().__init__(message)
        self.v = v
        self.omega = omega
        self.energy = energy


def require_positive(name: str, value) -> None:
    """Raise ConfigError unless value is a real number > 0 (inf allowed)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not value > 0:
        raise ConfigError(f"{name} must be a positive number, got {value!r}")


def require_count(name: str, value, minimum: int) -> int:
    """int(value) if value is an integral real >= minimum, else ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer() or value < minimum):
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def require_finite(name: str, value) -> float:
    """float(value) if value is a finite real number, else ConfigError."""
    if type(value) is float and math.isfinite(value):  # skips the slow ABC check
        return value
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def require_choice(name: str, value, allowed) -> None:
    """Raise ConfigError unless value is one of allowed."""
    if value not in allowed:
        raise ConfigError(f"{name} must be one of {list(allowed)}, got {value!r}")


def require_object(name: str, data, known, required=()) -> dict:
    """A copy of the JSON object data, else ConfigError naming the object:
    data must be a dict whose keys are all in known and include all of
    required."""
    if not isinstance(data, dict):
        raise ConfigError(f"'{name}' must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(known))
    missing = [key for key in required if key not in data]
    problems = [f"{what} key(s) {keys}" for what, keys in
                (("unknown", unknown), ("missing required", missing)) if keys]
    if problems:
        raise ConfigError(f"'{name}' has " + " and ".join(problems))
    return dict(data)

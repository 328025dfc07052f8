"""Exception hierarchy shared by all visim modules, and the checks of
numeric parameters that every config makes."""

import math
from numbers import Integral, Real


class VisimError(Exception):
    """Base class for all visim errors."""


class DomainError(VisimError):
    """A point violates its declared feasible domain."""


class DivergenceInfinite(VisimError):
    """Bregman divergence is +inf (mass where the reference point has none)."""


class ParameterError(VisimError):
    """An algorithm parameter is outside its admissible range."""


class NumericsError(VisimError):
    """A non-finite value appeared where a finite one is required."""


class ShapeError(VisimError):
    """Mismatched vector/matrix/block shapes."""


class ConfigError(VisimError):
    """Inconsistent run configuration."""


class IoError(VisimError):
    """Reading or writing an artifact file failed."""


class UnboundedOmegaError(VisimError):
    """The curvature ratio sup 2V/||.||^2 is infinite for this geometry."""


class UnsupportedRecenterError(VisimError):
    """The geometry's DGF does not support translation."""


class RestartStallError(VisimError):
    """A restart stage failed to halve the distance to a known solution."""


def check_positive(name: str, value: float) -> None:
    """Refuse a ``value`` that is not a finite number > 0 (NaN included)."""
    if not (math.isfinite(value) and value > 0.0):
        raise ParameterError(f"{name} must be finite and positive, got {value}")


def check_iters(iters: int) -> None:
    """Refuse an iteration count that is not an int >= 1."""
    if not (isinstance(iters, Integral) and iters >= 1):
        raise ParameterError(f"need at least one iteration, got {iters}")


def check_int_at_least(name: str, value: int, least: int) -> None:
    """Refuse an instance field that is not an int >= ``least`` with a
    ConfigError naming it."""
    if not (isinstance(value, Integral) and value >= least):
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def check_finite_positive(name: str, value: float) -> None:
    """Refuse an instance field that is not a finite real > 0 (NaN
    included) with a ConfigError naming it."""
    if not (isinstance(value, Real) and math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{name} must be finite and positive, got {value!r}")

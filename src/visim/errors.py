"""Exception hierarchy shared by all visim modules."""


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

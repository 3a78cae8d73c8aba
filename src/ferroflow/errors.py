"""Exception types shared across the library."""


class FerroflowError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatchError(FerroflowError):
    """Operands live on different generator sets or matrix sizes."""


class CapacityError(FerroflowError):
    """Requested generator count exceeds the configured maximum."""


class ParityError(FerroflowError):
    """An operation required an even element but got significant odd content."""


class GramSplitError(FerroflowError):
    """A covariance split C = C+ - C- was required but is not available."""


class LogDomainError(FerroflowError):
    """The scalar part left the domain of the logarithm.

    Carries the offending scalar in ``scalar_part``.
    """

    def __init__(self, message, scalar_part=None):
        super().__init__(message)
        self.scalar_part = scalar_part


class CharacteristicCrossingError(FerroflowError):
    """A characteristic map stopped being invertible (dz/dz0 <= 0).

    Carries the critical initial point in ``critical_z0`` when known.
    """

    def __init__(self, message, critical_z0=None):
        super().__init__(message)
        self.critical_z0 = critical_z0


class ExistenceError(FerroflowError):
    """The majorant existence window is empty at the requested scale."""


class ResolutionError(FerroflowError):
    """A grid or lattice cannot resolve a computation to a finite, accurate result."""


class ConfigError(FerroflowError):
    """A run configuration is malformed or out of range."""


class UnsupportedDimensionError(FerroflowError):
    """The requested analysis is only available in a specific dimension."""

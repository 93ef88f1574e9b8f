"""Exception taxonomy shared by all lab modules."""


class ModlocError(Exception):
    """Base class for lab-specific failures."""


class ConfigurationError(ModlocError):
    """Physical or numerical configuration is invalid."""


class DomainError(ModlocError):
    """Arguments lie outside an operation's domain."""


class SpectralError(ModlocError):
    """Covariance or spectrum violates positivity / the uncertainty bound."""

    def __init__(self, message, offending_value):
        super().__init__(message)
        self.offending_value = offending_value


class NumericError(ModlocError):
    """Quadrature or transform failed to reach the requested accuracy."""


class FitError(ModlocError):
    """Regression is underdetermined or degenerate."""


"""Exception types shared across the package."""


class ShadecraftError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(ShadecraftError, ValueError):
    """Parameters violate a documented precondition (sigma <= 0, xi > 0, ...)."""


class OutOfSupport(ShadecraftError, ValueError):
    """Evaluation point lies outside a distribution's (usable) support."""


class NonRegular(ShadecraftError, ValueError):
    """A distribution whose virtual value is not increasing where regularity is required."""


class NonMonotone(ShadecraftError, ValueError):
    """A function required to be strictly increasing is not."""


class FitFailure(ShadecraftError, RuntimeError):
    """A parametric fit could not be carried out on a degenerate input."""


class OptimizationError(ShadecraftError, RuntimeError):
    """An optimizer failed to produce a usable result."""


class ConfigError(InvalidParams):
    """Invalid experiment configuration, read as "<dotted field path>: <message>"."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")

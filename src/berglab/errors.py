"""Exception types shared across the package."""

__all__ = ["DomainError", "ConfigError", "NumericalError"]


class DomainError(ValueError):
    """A point lies outside the open unit disc where evaluation is defined."""


class ConfigError(ValueError):
    """A scenario configuration is malformed, incomplete, or contradictory."""


class NumericalError(RuntimeError):
    """A computation could not meet its accuracy or conditioning budget."""

"""Exception types shared across the package, and the rule every integer size obeys."""

import operator
import sys

__all__ = ["DomainError", "ConfigError", "NumericalError"]


class DomainError(ValueError):
    """A point lies outside the open unit disc where evaluation is defined."""


class ConfigError(ValueError):
    """A scenario configuration is malformed, incomplete, or contradictory."""


class NumericalError(RuntimeError):
    """A computation could not meet its accuracy or conditioning budget."""


def _at_least(n, least: int, name: str, most=sys.maxsize) -> int:
    """``n`` as an int, the rule of every integer size and count in the package: a float
    (no equispaced grid, or a failure deep in numpy) raises TypeError, a value below
    ``least`` ValueError, and so does one above ``most``: numpy indexes no size beyond
    ``sys.maxsize``."""
    n = operator.index(n)
    if n < least:
        raise ValueError(f"{name} must be at least {least}")
    if n > most:
        raise ValueError(f"{name} must be at most {most}")
    return n

"""Shared exception types."""

from __future__ import annotations


class UnsupportedSurfaceError(ValueError):
    """The surface does not support the requested feature."""


class UnknownCurveError(KeyError):
    """A chain index lies outside 1 .. 2g + 1 for the genus."""


class IntersectionUnsupportedError(ValueError):
    """Neither operand can be transported to a reference curve."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, message: str, required: int):
        super().__init__(f"{message} (required size {required})")
        self.required = required


class ConfigError(ValueError):
    """An experiment configuration is invalid."""


class InvariantViolationError(RuntimeError):
    """An exact invariant that must always hold was observed to fail."""

"""Typed errors shared across the package.

The distinction matters to callers: a :class:`GuardError` means a certified
composition/plan hypothesis failed and a coarser fallback (e.g. the naive
Lipschitz product) is still available, while a :class:`DomainError` means an
argument was outside its defining range.  The CLI maps these onto distinct
exit codes.
"""

from __future__ import annotations

import numbers


class OpSplitError(Exception):
    """Base class for all package errors."""


class DomainError(OpSplitError, ValueError):
    """A parameter lies outside its defining range; the message names the bound."""


class GuardError(DomainError):
    """A theorem hypothesis required for a certified result does not hold.

    ``hypothesis`` carries the violated inequality so callers can decide on a
    fallback path programmatically.
    """

    def __init__(self, message: str, hypothesis: str = ""):
        super().__init__(message)
        self.hypothesis = hypothesis or message


class StepSizeError(DomainError):
    """Step size outside the certified interval; carries the valid interval."""

    def __init__(self, message: str, interval=None):
        super().__init__(message)
        self.interval = interval


class BuildError(DomainError):
    """An operator could not be constructed from the given pieces."""


class NumericError(OpSplitError, ArithmeticError):
    """A numeric failure: singular solve, non-finite iterate, etc."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


def _is_integer(value) -> bool:
    """An integer input: a ``numbers.Integral`` (numpy's included) but not a ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)

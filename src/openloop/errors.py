"""Exception types shared across the package.

Plain ValueError / ZeroDivisionError are used where Python idiom
expects them (bad arguments, inverting zero).  The classes below mark
failure modes that callers may want to catch individually, e.g. the
command line maps them to distinct exit codes.
"""

from __future__ import annotations

__all__ = [
    "OpenLoopError",
    "SingularParameterError",
    "NonGenericPointError",
    "ConfluentPointError",
    "DegreeBoundError",
    "ConsistencyError",
]


class OpenLoopError(Exception):
    """Base class for the package's domain errors."""


class SingularParameterError(OpenLoopError):
    """A spectral parameter hits a pole of an operator coefficient."""


class NonGenericPointError(OpenLoopError):
    """A point fails a genericity requirement (degenerate kernel, ...)."""


class ConfluentPointError(OpenLoopError):
    """Character arguments collide; the confluent evaluator is needed."""


class DegreeBoundError(OpenLoopError):
    """Interpolation data is inconsistent with the promised degree bound."""


class ConsistencyError(OpenLoopError):
    """A cross-check failed: two independent computation routes disagreed,
    or the fixed vector depends on the auxiliary parameter w."""

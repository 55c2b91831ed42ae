"""Exception hierarchy for the rankability package."""

from __future__ import annotations


class RankabilityError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(RankabilityError, ValueError):
    """An argument lies outside the values its parameter accepts."""


class DimensionMismatchError(RankabilityError):
    """Two objects that must share a size n do not."""


class MalformedPermutationError(RankabilityError):
    """A sequence that must be a permutation of 1..n is not."""


class InfeasibleSolutionError(RankabilityError):
    """A binary matrix violates the tournament or 3-dicycle constraints."""


class UndefinedMetricError(RankabilityError):
    """A metric is undefined for this input (all-zero matrix, zero variance)."""


class MalformedInputError(RankabilityError):
    """An input file could not be parsed; message carries line numbers."""


class EmptyDataError(RankabilityError):
    """No games available for the requested stage or computation."""


class InvalidKStarError(RankabilityError):
    """The supplied optimal value is not attained by any ranking."""


class TooManyItemsError(RankabilityError):
    """The matrix has more items than the exact searches support."""


class UnprovenOptimumError(RankabilityError):
    """An operation needs a proven optimum but the solve hit its time limit."""

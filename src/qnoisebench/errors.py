"""Exception types raised across the package, `is_integer` and `is_real`."""

import numbers


def is_integer(value) -> bool:
    """A Python or numpy integer, not a bool nor a float equal to one."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def is_real(value) -> bool:
    """A Python or numpy real number, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class SimulationError(Exception):
    """Base class for all domain errors raised by this package."""


class NotHermitian(SimulationError):
    pass


class NotNormalized(SimulationError):
    pass


class InvalidState(SimulationError):
    """Density matrix violates a state invariant (trace, hermiticity, positivity)."""


class WidthMismatch(SimulationError):
    """Circuit, cycle, or gate width disagrees with the state it is applied to."""


class DuplicateIndex(SimulationError):
    pass


class InvalidParams(SimulationError):
    """Noise or gate parameters outside their admissible range."""


class UnknownLevel(SimulationError):
    pass


class DimMismatch(SimulationError):
    pass


class OutOfRange(SimulationError):
    pass


class NotADistribution(SimulationError):
    """Probability vector is negative, non-normalized, or shape-mismatched."""


class SearchExhausted(SimulationError):
    """Gate-sequence search hit its depth budget without reaching tolerance."""


class NotInterleaved(SimulationError):
    """Randomized compiling requires no two adjacent hard cycles."""


class FitDiverged(SimulationError):
    pass


class ZeroIdealProbability(SimulationError):
    """Cross-entropy scoring hit an ideal probability too small to take a log of."""


class ConfigError(SimulationError):
    """Experiment configuration is malformed; CLI maps this to exit code 2."""


class IoError(SimulationError):
    """Result file could not be written."""

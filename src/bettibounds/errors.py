"""Exception types shared across the package."""


class BettiError(Exception):
    """Base class for every domain error raised by this package."""


class FormatError(BettiError):
    """Malformed input: a rational literal, a JSON shape, ideal data, a corpus family name, or a
    diagram value, gap coordinate or recompose coefficient not of type int or Fraction."""


class DomainError(BettiError):
    """Argument outside the mathematical domain of the function.

    This covers empty diagrams and a vanishing Hilbert numerator, negative or
    non-integer gaps, sequences of different lengths, a vanishing denominator
    at an evaluation point, out-of-range bound parameters or gap tails, and
    scan ranges outside the guard rails.
    """


class GapColumnError(BettiError):
    """A column strictly below the projective dimension is entirely zero."""


class InvalidSequenceError(BettiError):
    """Degree sequence is not a strictly increasing integer tuple."""


class NotInConeError(BettiError):
    """Greedy elimination failed: the diagram is not a nonnegative combination it can reach."""


class TooManyGeneratorsError(BettiError):
    """Generator count exceeds the subset-enumeration guard."""


class UsageError(BettiError):
    """Command line that argparse refuses, or not exactly one of FILE and --family."""

"""Typed errors raised across the library."""


class LinsepError(Exception):
    """Base class for all library errors."""


class BadModulus(LinsepError, ValueError):
    """Field modulus is not a prime in the supported range."""


class MalformedScheme(LinsepError):
    """A scheme file does not describe a scheme this version can load."""


class MalformedDemand(LinsepError):
    """A demand file is not a matrix of integers."""


class SingularMatrix(LinsepError):
    """Matrix inversion attempted on a singular matrix."""


class UseGeneralAssignment(LinsepError):
    """Cyclic assignment requires the worker count to divide the dataset count."""


class UnsupportedGroupedParams(LinsepError):
    """Grouped assignment/scheme requested outside the supported parameter family."""


class GroupedSolveFailed(LinsepError):
    """Coefficient propagation for the grouped scheme hit an unsolvable step."""


class BadMessageLength(LinsepError):
    """Message length is not divisible by the required split count."""


class ShapeMismatch(LinsepError):
    """Operands have inconsistent shapes or fields."""


class WrongResponderCount(LinsepError):
    """Decoder called with a number of answers different from the threshold."""


class RankDeficientDemand(LinsepError):
    """Full-recovery fallback requires a demand matrix of full row rank."""


class NotCovered(LinsepError):
    """Closed-form cost requested outside the parameter range it covers."""


class Unsupported(LinsepError):
    """Operation stated only for parameters it was not called with."""

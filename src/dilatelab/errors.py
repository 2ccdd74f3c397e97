"""Exception types shared across the package.

Guard violations (size limits) raise TooLargeError so callers can map them
to a dedicated exit status; everything else signals a bad argument or a
precondition the caller can check up front.
"""


class DilateLabError(Exception):
    """Base class for all package-specific errors."""


class NotPrimeError(DilateLabError):
    """The given modulus is not a prime number, or too large to decide whether it is."""


class EvenPrimeError(DilateLabError):
    """p = 2 is rejected everywhere; the quadratic machinery needs an odd prime."""


class NotASquareError(DilateLabError):
    """Square root requested for a quadratic nonresidue."""


class NotASquareRatioError(DilateLabError):
    """An operation that needs a square dilation ratio got a nonsquare."""


class DimensionMismatchError(DilateLabError):
    """Points or matrices of incompatible dimensions were combined."""


class ZeroVectorError(DilateLabError):
    """A construction that needs nonzero vectors got the zero vector."""


class NormMismatchError(DilateLabError):
    """The two vectors do not satisfy the required quadratic-norm relation."""


class WrongResidueClassError(DilateLabError):
    """The operation is only valid in a residue class of p the input is not in."""


class OddDimensionError(DilateLabError):
    """The closed-form sphere size is only available in even dimension."""


class TooLargeError(DilateLabError):
    """An enumeration or brute-force guard was exceeded."""


class SizeExceedsSpaceError(DilateLabError):
    """A random point set larger than the ambient space was requested."""


class PointFileError(DilateLabError):
    """A point-set file is malformed (bad header, bad coordinates, duplicates)."""


class MethodMismatchError(DilateLabError):
    """Two counting methods that must agree produced different values."""

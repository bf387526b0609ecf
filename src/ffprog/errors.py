"""Exception hierarchy shared across the package.

Every error raised deliberately by this package derives from FFProgError so
callers (and the command line driver) can distinguish our failures from bugs.
"""


class FFProgError(Exception):
    """Base class for all package errors."""


class NotPrime(FFProgError):
    """The requested modulus is composite."""


class OutOfRange(FFProgError):
    """The requested modulus is outside the supported window [3, 2**31)."""


class BadCharacteristic(FFProgError):
    """A rational coefficient cannot be reduced because p divides its denominator."""


class Inadmissible(FFProgError):
    """A polynomial pair fails the admissibility requirements.

    Carries a Diagnosis value (see polys.Diagnosis) in ``diagnosis``.
    """

    def __init__(self, diagnosis, message=""):
        self.diagnosis = diagnosis
        super().__init__(message or f"inadmissible pair: {diagnosis}")


class BadDensity(FFProgError):
    """Subset density outside [0, 1]."""


class CharTooSmall(FFProgError):
    """The field characteristic is below the minimum the pair requires."""


class WorkBudgetExceeded(FFProgError):
    """An enumeration would exceed the configured work budget."""


class NotMeanZero(FFProgError):
    """An operation required a balanced (mean-zero) function."""


class DegreeTooSmall(FFProgError):
    """The polynomial degree is below what the operation requires."""


class BadDegrees(FFProgError):
    """Degree parameters outside the supported certificate range."""


class ZeroPolynomial(FFProgError):
    """An operation that needs a nonzero polynomial received zero."""


class CorruptFiberFile(FFProgError):
    """A cached fiber file failed its integrity checks."""

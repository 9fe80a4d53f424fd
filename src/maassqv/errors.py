"""Exception hierarchy shared by all modules, and the one allocation limit
that the ideal scan and the dense table fills enforce."""

ALLOC_BYTES_MAX = 8 << 30  # largest scan or table build allowed, in bytes


class MaassqvError(Exception):
    """Base class for all package errors."""


# quadfield
class NotSquarefree(MaassqvError):
    pass


class NotOneMod4(MaassqvError):
    pass


class NotTwoPrimeProduct(MaassqvError):
    pass


class UnitNormNotOne(MaassqvError):
    pass


class Overflow(MaassqvError):
    """Integer left an enforced range: 128-bit signed, or FACTOR_MAX."""


class ZeroElement(MaassqvError):
    pass


# ideals / hecke
class ScanBoundExceeded(MaassqvError):
    pass


class TableBoundExceeded(MaassqvError):
    pass


class MalformedTable(MaassqvError):
    pass


class MissingPrime(MaassqvError):
    pass


# lattice
class HypothesisViolated(MaassqvError):
    pass


# halfint / lfun
class EvenInput(MaassqvError):
    pass


class BadDecomposition(MaassqvError):
    pass


class TruncationInsufficient(MaassqvError):
    pass


class WindowViolation(MaassqvError):
    pass


class QuadratureNonconvergent(MaassqvError):
    pass


class PoleInput(MaassqvError):
    pass

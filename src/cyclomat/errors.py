"""Exception types raised across the package.

Every error is a subclass of CyclomatError so callers can catch the whole
family; names mirror the condition they report.
"""


class CyclomatError(Exception):
    """Base class for all cyclomat errors."""


class EvenP(CyclomatError):
    """Characteristic 2 (or any even p) requested; only odd primes are supported."""


class CompositeP(CyclomatError):
    """p failed the primality test."""


class InvalidDegree(CyclomatError):
    """Extension degree n is not a positive integer."""


class ReducibleModulus(CyclomatError):
    """Supplied modulus polynomial is not irreducible over F_p."""


class NoModulusAvailable(CyclomatError):
    """No monic irreducible of degree n over F_p turned up in the exhaustive
    search for a modulus; one exists for every (p, n), so this is a bug."""


class NotAGenerator(CyclomatError):
    """User-supplied generator does not have full multiplicative order."""


class ZeroElement(CyclomatError):
    """Discrete logarithm of the zero element requested."""


class OutOfDomain(CyclomatError):
    """A numeric argument lies outside its function's domain (m < 1 to
    factorize, a root tolerance that is not finite and positive)."""


class DimensionMismatch(CyclomatError):
    """Matrix operands are not conformable."""


class InvalidEll(CyclomatError):
    """ell does not divide q - 1 (or is not positive)."""


class EllTooSmall(CyclomatError):
    """Operation needs ell >= 2 (minor extraction) or ell >= 4 (column survey)."""


class EllOne(CyclomatError):
    """Difference-set layer excludes the degenerate case ell = 1."""


class KEven(CyclomatError):
    """Operation is defined only for odd k (nonzero half-shift)."""


class ContextTooLarge(CyclomatError):
    """Field exceeds a size guard: the int64 table bound or an exhaustive
    verification's limit."""


class NotADifferenceSet(CyclomatError):
    """Certificate operation called on a context that is not a difference set."""


class InvalidJobs(CyclomatError):
    """Worker count for a search is not positive."""


class RangeTooLarge(CyclomatError):
    """Search range exceeds the desk-scale bound."""


class InternalError(CyclomatError):
    """An invariant that holds for every valid input failed: a defect in
    this package, never a usage error.  Replaces bare asserts, which
    python -O strips."""


class IoFailure(CyclomatError):
    """Emission to an output stream failed."""

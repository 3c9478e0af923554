"""Exception hierarchy.

Every error raised by this package derives from :class:`PcaForgeError`, so
callers can catch one type at an API boundary.  Operating-system failures
during file I/O are *not* wrapped; they propagate as the builtin ``OSError``.
"""


class PcaForgeError(Exception):
    """Base class for all package errors."""


# -- parameter validation -----------------------------------------------------

class StrengthTooSmall(PcaForgeError):
    """t < 2, or t > k."""


class SeedOutOfRange(PcaForgeError):
    """RNG seed outside [0, 2^64)."""


class AlphabetTooSmall(PcaForgeError):
    """v < 2."""


class MOutOfRange(PcaForgeError):
    """m outside [1, v^t]."""


class Overflow(PcaForgeError):
    """v^t or k does not fit in a 64-bit integer."""


class EpsilonOutOfRange(PcaForgeError):
    """epsilon outside [0, 1]."""


# -- array cells ---------------------------------------------------------------

class SymbolOutOfRange(PcaForgeError):
    """A symbol is negative or >= v."""


# -- bound evaluation ----------------------------------------------------------

class ROutOfRange(PcaForgeError):
    """log-binomial called with r < 0 or r > n."""


class KTooSmallForLLL(PcaForgeError):
    """The local-lemma bound and its builder need k >= 2t."""


class EpsilonZero(PcaForgeError):
    """An almost-coverage operation needs epsilon > 0."""


class SOutOfRange(PcaForgeError):
    """Orbit-deficiency parameter s outside [1, v^(t-1))."""


class MConditionViolated(PcaForgeError):
    """m exceeds the admissible range for the concatenated construction."""


class DomainError(PcaForgeError, ValueError):
    """Argument outside the domain a function accepts: a non-integer t, k, v,
    m, seed, sweep value, array cell or ``PCAFORGE_SEED``, a negative k for
    constant rows, an epsilon or q that is not a real number, an
    informational formula's mathematical domain, an unknown formula or axis
    label, a file base other than 0 or 1 or a malformed value list."""


class EmptyRange(PcaForgeError):
    """A sweep was requested over an empty axis range."""


# -- finite fields / group actions --------------------------------------------

class NotPrimePower(PcaForgeError):
    """v is not a prime power."""


class OrderTooLarge(PcaForgeError):
    """Field order above the supported maximum (64)."""


class StructureMismatch(PcaForgeError, ValueError):
    """``develop`` was given a group action over another alphabet than the array's."""


# -- enumeration / construction -------------------------------------------------

class CapacityExceeded(PcaForgeError):
    """An exhaustive enumeration would be too large to run."""


class IterationCap(PcaForgeError):
    """A randomized builder hit its resample/restart cap without success."""


class MNotFull(PcaForgeError):
    """m differs from v^t where only full coverage is supported: the cyclic,
    frobenius and derandomized builders and the cyclic and frobenius
    development bounds."""


# -- file I/O -------------------------------------------------------------------

class ParseError(PcaForgeError):
    """Malformed array file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DimensionMismatch(PcaForgeError, ValueError):
    """Shapes disagree: a file body with its declared dimensions, stacked
    arrays with each other, or cells with a 2-D grid."""

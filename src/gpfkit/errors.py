"""Exception types shared across the package."""


class GpfError(Exception):
    """Base class for all errors raised by gpfkit."""


class RingMismatchError(GpfError):
    """Operands live over different rings or free modules of different rank."""


class ParseError(GpfError):
    """Script could not be parsed; carries a 1-based source position."""

    def __init__(self, message, line, col):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class VerificationError(GpfError):
    """A step or chain failed re-verification; the message names what
    failed."""


class HypothesisError(GpfError):
    """A construction hypothesis does not hold; carries the index of the
    failed condition when there is one."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class IncompleteRegistryError(GpfError):
    """An associated-prime enumeration came back empty against the
    candidate primes while the module is nonzero, so no further progress
    is sound."""


class BudgetError(GpfError):
    """A size or iteration budget was exceeded (grown irreducible
    components, predicted ideal product generators, polynomial exponents, element count of a
    finite model, filtration steps, Buchberger pairs)."""

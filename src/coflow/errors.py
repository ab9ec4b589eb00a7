"""Exception types shared across the package."""


class CoflowError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(CoflowError, ValueError):
    """Matrix shape does not match the declared node count."""


class NegativeDemandError(CoflowError, ValueError):
    """A demand entry is negative."""


class DiagonalDemandError(CoflowError, ValueError):
    """A diagonal demand entry is nonzero (self-demand is meaningless)."""


class StructuralError(CoflowError, ValueError):
    """A schedule references nodes or commodities that do not exist."""


class UnsupportedSizeError(CoflowError, ValueError):
    """Node count not supported by the requested scheme (e.g. not a power of 2).

    ``suggested_n`` is the smallest larger node count the scheme supports;
    the message names it.
    """

    def __init__(self, message, suggested_n=None):
        if suggested_n:
            message = f"{message} (the next supported size is n={suggested_n})"
        super().__init__(message)
        self.suggested_n = suggested_n


class SizeGuardError(CoflowError, ValueError):
    """LP oracle refused an input larger than its desk-scale guard."""


class SchedulingError(CoflowError, RuntimeError):
    """Internal invariant broken while building a schedule."""

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


class SizeGuardError(CoflowError, ValueError):
    """LP oracle refused an input larger than its desk-scale guard."""


class SchedulingError(CoflowError, RuntimeError):
    """Internal invariant broken while building a schedule."""

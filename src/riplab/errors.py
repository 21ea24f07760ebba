"""Exception types shared across riplab modules."""


class RiplabError(Exception):
    """Base class for all riplab errors."""


class InvalidSpecError(RiplabError, ValueError):
    """A parameter record violates its invariants."""


class BudgetError(RiplabError):
    """An enumeration or construction would exceed its configured budget."""


class CoverViolationError(RiplabError):
    """A net advertised as a cover failed to contract a residual."""


class InfeasibleError(RiplabError):
    """A right-hand side is not attainable (e.g. b outside the column space)."""

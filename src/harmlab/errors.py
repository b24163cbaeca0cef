"""Exception types shared across the library, one per CLI exit code."""


class HarmlabError(Exception):
    """Base class for all library errors."""


class InvalidInput(HarmlabError):
    """An input the operation does not accept (CLI exit 2)."""


class BudgetExceeded(HarmlabError):
    """A size or count exceeded its cap (CLI exit 3)."""


class NumericalFailure(HarmlabError):
    """A solve, estimate or integer program failed (CLI exit 4)."""

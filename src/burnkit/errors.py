"""Exception types shared across the package."""


class BurnkitError(Exception):
    """Base class for all package-specific errors."""


class InstanceError(BurnkitError, ValueError):
    """An instance description is malformed (bad orders, arm counts, edges)."""


class BudgetError(BurnkitError, ValueError):
    """A cover's radii do not fit its budget (sorted radii must obey r_(i) <= M - i)."""


class CoverageError(BurnkitError, ValueError):
    """A cover fails to reach every vertex of the target graph."""


class VerificationError(BurnkitError, ValueError):
    """A schedule presented as valid does not burn the graph by its claimed time."""


class SizeGuardError(BurnkitError, ValueError):
    """An exact solver's instance is past its order guard or its search budget."""


class InternalContradictionError(BurnkitError, AssertionError):
    """A constructive burner produced a cover that fails its own guarantee.

    It indicates a bug rather than a bad input.
    """

"""Exception types shared across the workbench."""


class LegendreLabError(Exception):
    """Base class for all workbench errors."""


class EmptyDomainError(LegendreLabError):
    """Every grid value is +inf, so the function has no effective domain."""


class PointOutsideDomainError(LegendreLabError):
    """An operation was anchored at a point where the function is +inf."""


class NotASubgradientError(LegendreLabError):
    """The supplied dual point fails the Fenchel-Young gap test at the base point."""


class InfeasibleProblemError(LegendreLabError):
    """The constraint set does not meet the effective domain."""


class BudgetExhaustedError(LegendreLabError):
    """Witness search ran out of probe budget before finding a tie."""


class SchemaViolationError(LegendreLabError):
    """A serialized artifact does not match its documented schema."""


class IoFailureError(LegendreLabError):
    """Reading or writing an artifact failed at the filesystem level."""

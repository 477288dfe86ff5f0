"""Exception hierarchy shared by all relight modules."""


class RelightError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RelightError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(RelightError):
    """An input value lies outside the mathematical domain of an operation."""


class ContractError(RelightError):
    """A documented precondition of an operation was violated."""


class ConfigError(RelightError):
    """Invalid or inconsistent configuration."""


class PartitionError(RelightError):
    """Window partition/reverse called with non-divisible geometry."""


class DivergenceError(RelightError):
    """A loss term became non-finite during training."""

"""Exception hierarchy shared by all relight modules: one class per kind of fault.

- ``DimensionError``: a shape does not fit.  A Tensor's rank or shape does not
  match the op, another operand or the weights, or a shape or axis argument
  (``reshape`` target, ``permute`` axes, ``concat`` axis, ``crop`` rect) is
  malformed or out of range.
- ``ContractError``: any other argument breaks a precondition: a wrong type, an
  int or real out of range or not dividing what it must, a region, tape misuse.
- ``DomainError``: a value lies outside an op's domain.
- ``DivergenceError``: a loss term became non-finite.
"""


class RelightError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RelightError):
    """A shape does not fit."""


class ContractError(RelightError):
    """Any other argument breaks a precondition."""


class DomainError(RelightError):
    """A value lies outside an op's domain."""


class DivergenceError(RelightError):
    """A loss term became non-finite."""

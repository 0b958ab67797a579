"""Shared exception types for the reduction pipeline."""

from __future__ import annotations


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


class ParseError(ValueError):
    """Malformed textual input (polynomial, scalar, CNF, or JSON payload)."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class GuardExceededError(RuntimeError):
    """A constructed index set would exceed the size guard."""

    def __init__(self, size: int, bound: int, what: str = "labels"):
        super().__init__(f"size guard exceeded: {size} {what} > bound {bound}")
        self.size = size
        self.bound = bound
        self.what = what


class BudgetExceededError(RuntimeError):
    """A brute-force search would exceed its candidate budget."""


class VerificationError(ValueError):
    """An exact check failed (solution, completion, witness, or factorization)."""


class StructureError(RuntimeError):
    """A structural property the construction relies on does not hold.

    Raised instead of silently patching the data: it flags either malformed
    input or a genuine defect in the construction being exercised.
    """


class FieldTooSmallError(ValueError):
    """The coefficient field is too small for the requested gadget."""

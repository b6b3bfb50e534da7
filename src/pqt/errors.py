"""Shared exception types."""


class UniverseMismatch(ValueError):
    """Words or elements from different universes were combined."""


class LimitExceeded(RuntimeError):
    """An enumeration, solver or moment would exceed its configured cap."""


class ExprSyntaxError(ValueError):
    """Raised by the expression parser; carries the offending token position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position

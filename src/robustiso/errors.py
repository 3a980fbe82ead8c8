"""Shared exception types."""


class ParseError(ValueError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BudgetExceededError(RuntimeError):
    """A bounded routine would exceed its work budget or size cap;
    `attempted` is the figure it compared with that limit."""

    def __init__(self, message, attempted: int):
        super().__init__(message)
        self.attempted = attempted


class VerificationError(RuntimeError):
    """A post-hoc verification of a computed object failed."""


class UnreachableTargetError(ValueError, VerificationError):
    """A requested property that no input of the given size can have: an
    argument error, and a VerificationError too, since a search for such an
    input could only fail."""

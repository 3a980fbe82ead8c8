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

    @classmethod
    def check(cls, count: int, limit: int | None, what: str) -> None:
        """The one refusal rule: raise when `count` units of `what` pass
        `limit`, with `attempted` = count; a limit of None bounds nothing."""
        if limit is not None and count > limit:
            raise cls(f"{count} {what}, over the limit of {limit}", count)


class VerificationError(RuntimeError):
    """A post-hoc verification of a computed object failed."""

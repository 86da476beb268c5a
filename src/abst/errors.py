"""Exception types shared across the package."""


class AbstError(Exception):
    """Base class for all library errors."""


class InvalidDistributionError(AbstError, ValueError):
    """Probabilities are not strictly positive rationals summing to one."""


class KeyNotFoundError(AbstError, LookupError):
    """A requested key is absent from the structure."""


class InvalidMatchingError(AbstError, ValueError):
    """A matching pair does not describe a valid search tree."""


class InvalidRequestError(AbstError, ValueError):
    """A simulated request names a key outside the fixed key set, or one
    that is not an integer."""


class TraceParseError(AbstError, ValueError):
    """A trace file line could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class BoundViolationError(AbstError):
    """A cost-accounting invariant failed during a checked run."""

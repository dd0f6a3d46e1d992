"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by hybridrbf."""


class ConfigError(ToolkitError):
    """Invalid configuration or arguments, caught before numerics run."""


class DomainError(ToolkitError, ValueError):
    """Input outside an operation's mathematical domain."""


class DegenerateInputError(ToolkitError):
    """Point set unusable for fitting, e.g. duplicate rows."""


class SingularSystemError(ToolkitError):
    """Factorization hit an exactly or numerically singular pivot."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NumericalBreakdownError(ToolkitError):
    """An intermediate quantity overflowed, or underflowed below usable magnitude."""


class EigensolverError(ToolkitError):
    """The symmetric eigensolver failed to converge."""

"""Exception hierarchy shared by every module.

Each class carries the process exit code the CLI returns for it, and
subclasses inherit theirs: invalid arguments and parse failures exit 2,
size-cap violations exit 3, degenerate inputs exit 4.
"""


class SparselabError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class InvalidArgumentError(SparselabError, ValueError):
    """An argument violates an operation's stated domain."""


class OutOfRegimeError(InvalidArgumentError):
    """Inputs fall outside the validity regime of an analytic bound."""


class SizeLimitError(SparselabError):
    """Input exceeds the hard cap of an exact computation; use a sampled mode."""

    exit_code = 3


class DegenerateInputError(SparselabError):
    """The requested quantity is undefined on this input."""

    exit_code = 4


class NotComparableError(DegenerateInputError):
    """No finite relative spectral error exists for this pair of graphs."""


class UnsupportedInputError(SparselabError):
    """Input lacks structure (metadata, simplicity) this operation requires."""


class ParseError(SparselabError, ValueError):
    """Malformed edge-list file; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number

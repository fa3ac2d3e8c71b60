"""Shared exception types.

The CLI maps these onto exit codes: InputError -> 1,
HypothesisError -> 2, SizeLimitError -> 3.
"""


class EulerDiscError(Exception):
    pass


class InputError(EulerDiscError):
    """Malformed or unreadable input, or an output file that cannot be
    opened (parse errors carry a position when known)."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class HypothesisError(EulerDiscError):
    """A theorem hypothesis is violated (disconnected graph, chi* = 0, ...)."""


class SizeLimitError(EulerDiscError):
    """Input exceeds the desk-scale bounds of an enumeration routine."""

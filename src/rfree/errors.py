"""Shared exception types.

Invalid arguments raise the builtin ValueError; the classes here cover the
failure modes that are not caller mistakes.
"""


class ResourceLimitError(RuntimeError):
    """An enumeration or precision request exceeds its configured budget."""


class InvariantViolationError(RuntimeError):
    """Two independent computations of the same quantity disagree.

    Raised when an internal cross-check fails (dual totient forms, integrality
    of an exact-rational accumulation, and similar). Always indicates a bug,
    never bad input.
    """


class EmptyWindowError(ValueError):
    """A two-window report found no row on one side of its split.

    A ValueError to library callers; the CLI treats it as a failed check
    (exit 1), not as a bad row or argument (exit 2).
    """

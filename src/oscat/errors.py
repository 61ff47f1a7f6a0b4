"""Shared exception types."""

__all__ = [
    "OscatError",
    "InvalidInputError",
    "ShapeMismatchError",
    "SizeLimitError",
    "UnsupportedSpaceError",
]


class OscatError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(OscatError, ValueError):
    """Input data is malformed (non-finite entries, bad literals, ...)."""


class ShapeMismatchError(OscatError, ValueError):
    """Dimensions of the operands are incompatible."""


class SizeLimitError(OscatError, ValueError):
    """A construction would exceed the configured dimension cap."""


class UnsupportedSpaceError(OscatError, ValueError):
    """The requested norm/operation is not available for this space shape."""

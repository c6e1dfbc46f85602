"""Exception types shared across the package."""

from __future__ import annotations


class ApgError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(ApgError):
    """A text or file input could not be parsed.

    Carries an optional position (offset into the input, or a line/column
    pair for JSON files) so command-line diagnostics can point at the spot.
    """

    def __init__(self, message: str, position: object = None):
        super().__init__(message)
        self.position = position

    def __str__(self) -> str:
        base = super().__str__()
        if self.position is None:
            return base
        return f"{base} (at {self.position})"


class InvalidJSON(ParseError):
    """A document is not well-formed JSON."""


class PreconditionError(ApgError):
    """An operation was called on inputs it is not defined for."""


class ValidationFailure(ApgError):
    """A graph or morphism failed validation; carries the report."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report

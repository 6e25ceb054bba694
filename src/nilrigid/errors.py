"""Exception types shared across the package."""

from __future__ import annotations


class NilrigidError(Exception):
    """Base class for all errors raised by this package."""


class DomainMismatchError(NilrigidError):
    """Two forms over different generator sets were combined."""


class MixedDegreeError(NilrigidError):
    """A homogeneous degree was requested of a form of mixed degrees."""


class NotClosedError(NilrigidError):
    """A cohomology operation received a form that is not a cocycle."""

    def __init__(self, message, differential=None):
        super().__init__(message)
        self.differential = differential


class ModelError(NilrigidError):
    """A Sullivan model failed a structural requirement (e.g. d^2 != 0)."""

    def __init__(self, message, defects=None):
        super().__init__(message)
        self.defects = defects or []


class NotNilpotentError(NilrigidError):
    """An operation requiring nilpotency met a stabilizing central series."""


class FamilyShapeError(NilrigidError):
    """A model did not match the two-parameter family shape expected by
    perturbation normalization."""


class SizeCapError(NilrigidError):
    """A construction would exceed the configured dimension cap."""


class ParseError(NilrigidError):
    """Syntax or semantic error in an algebra file."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column

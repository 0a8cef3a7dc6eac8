"""Exception hierarchy shared across the library.

Every exception that signals a violated domain contract derives from
DomainError so callers (and the CLI) can distinguish bad input from bugs.
Each class carries enough structure to report the offending data exactly.
`guard_depth(walk, *args)` is the one place that turns a walk nested
deeper than the recursion limit into `TooDeep`.
"""

from __future__ import annotations

import sys


class DomainError(Exception):
    """Base class for all domain-contract violations."""

    def payload(self) -> dict:
        return {"error": type(self).__name__, "detail": str(self)}


class DuplicateLabel(DomainError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"duplicate point label {label!r}")


class OutOfRange(DomainError):
    def __init__(self, what: str, value) -> None:
        self.what = what
        self.value = value
        super().__init__(f"{what} out of range: {value}")


class AxiomViolation(DomainError):
    """A metric axiom failed; names the offending pair or triple."""

    def __init__(self, kind: str, x: str, y: str, z: str | None = None):
        self.kind = kind
        self.x, self.y, self.z = x, y, z
        where = f"({x}, {y})" if z is None else f"({x}, {y}, {z})"
        super().__init__(f"{kind} axiom fails at {where}")


class UnknownPoint(DomainError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"unknown point {label!r}")


class WeightsNotNormalized(DomainError):
    def __init__(self, total):
        self.total = total
        super().__init__(f"weights sum to {total}, expected 1")


class MarginalMismatch(DomainError):
    def __init__(self, side: str, point):
        self.side = side
        self.point = point
        super().__init__(f"{side} marginal mismatch at point {point!r}")


class SpaceMismatch(DomainError):
    def __init__(self, detail: str = "operands live over different spaces"):
        super().__init__(detail)


class TooLarge(DomainError):
    def __init__(self, what: str, actual, limit):
        self.what, self.actual, self.limit = what, actual, limit
        super().__init__(f"{what} of size {actual} exceeds cap {limit}")


class MalformedInput(DomainError):
    """Input of the wrong shape: a missing field, a bad rational, or a
    path that cannot be read as UTF-8 text (such as a directory)."""


class FileNotFound(DomainError):
    """An input path names no file."""


class TooDeep(DomainError):
    """Input nested deeper than the interpreter's recursion limit."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"input nested too deeply (recursion limit {limit})")


def guard_depth(walk, *args):
    """`walk(*args)`, raising TooDeep where it raises RecursionError."""
    try:
        return walk(*args)
    except RecursionError:
        raise TooDeep(sys.getrecursionlimit()) from None


class EmptySet(DomainError):
    def __init__(self, detail: str = "empty set where a nonempty one is required"):
        super().__init__(detail)


class EmptyInput(DomainError):
    def __init__(self, detail: str = "empty input"):
        super().__init__(detail)


class BadProbability(DomainError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"probability must lie strictly between 0 and 1, got {value}")


class ParseError(DomainError):
    """Syntax error in the term grammar; position is a 0-based offset."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at offset {position})")

    def payload(self) -> dict:
        return {
            "error": type(self).__name__,
            "detail": str(self),
            "position": self.position,
        }

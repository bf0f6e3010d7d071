"""Exception hierarchy for the ldm3n engine."""

from __future__ import annotations


class Ldm3nError(Exception):
    """Base class for all engine errors."""


class MalformedLine(Ldm3nError):
    """A statement line that does not parse as N-Triples."""

    def __init__(self, lineno: int, reason: str, line: str = ""):
        self.lineno = lineno
        self.reason = reason
        self.line = line
        super().__init__(f"line {lineno}: {reason}" + (f": {line!r}" if line else ""))


class CapacityExhausted(Ldm3nError):
    """An id counter would overflow 64 bits."""


class UnknownId(Ldm3nError):
    """A term id that was never issued (including the 0 sentinel)."""


class UnknownNode(Ldm3nError):
    """A query endpoint that is not present in the store's dictionary."""


class UnknownTriple(Ldm3nError):
    """A triple referenced by a path that does not exist in the store."""


class UnknownProperty(Ldm3nError):
    """A generic property referenced by pair generation that was never issued."""


class MalformedGraph(Ldm3nError):
    """A triple-node graph whose paired edges do not meet at a shared node."""


class StoreCorrupt(Ldm3nError):
    """An on-disk store whose files are missing, truncated, mis-labeled or damaged."""


class ResourceLimit(Ldm3nError):
    """Entailment produced more derived triples than the configured bound."""

"""Exception hierarchy shared by all optimizer components."""

from __future__ import annotations


class SprinkleQoError(Exception):
    """Base class for every error raised by this package."""

    code = "error"


class CatalogError(SprinkleQoError):
    """Schema or statistics document is malformed or inconsistent."""

    code = "validation"


class ParseError(SprinkleQoError):
    """Query text does not belong to the supported SQL subset."""

    code = "parse"


class ValidationError(SprinkleQoError):
    """Query is syntactically fine but semantically invalid for the catalog."""

    code = "validation"


class DagError(SprinkleQoError):
    """Memo table misuse: signature collisions, cycles, dangling children."""

    code = "validation"


DEFAULT_MAX_OPS = 8  # the enumeration limit every entry point defaults to


class LimitExceededError(SprinkleQoError):
    """An enumeration guard tripped before a factorial blow-up."""

    code = "limit"

    def __init__(self, what: str, n: int, limit: int):
        super().__init__(f"{what}: {n} operations exceed limit {limit}")
        self.n = n
        self.limit = limit


class PersistenceError(SprinkleQoError):
    """History file is unreadable, corrupt, or from a different schema."""

    code = "io"

"""The relational database the Linear Road workflow runs on.

The paper's Linear Road implementation "requires the support of a
relational database to store statistics on the road congestion as well as
the recent accidents detected".  :class:`Database` is the standard
library's SQLite, in memory, behind the engine's surface (``execute``,
``Result``, checkpoint dump/restore, ``explain``); the paper's toll query
runs on it as published, save the one correlation fix documented in
DESIGN.md.
"""

from .database import Database, Result
from .errors import (
    ConstraintError,
    QueryError,
    SchemaError,
    SQLError,
    SQLSyntaxError,
)

__all__ = [
    "ConstraintError",
    "Database",
    "QueryError",
    "Result",
    "SchemaError",
    "SQLError",
    "SQLSyntaxError",
]

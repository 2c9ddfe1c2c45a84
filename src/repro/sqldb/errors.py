"""Errors raised by :class:`~repro.sqldb.Database`, one per failure class.

:func:`repro.sqldb.database._translate` maps every ``sqlite3`` error onto
them, so callers never import ``sqlite3``.
"""

from __future__ import annotations

from ..core.exceptions import ConfluenceError


class SQLError(ConfluenceError):
    """Base class for every database error."""


class SQLSyntaxError(SQLError):
    """The statement text could not be tokenized or parsed."""


class SchemaError(SQLError):
    """Unknown table/column, or a duplicate definition."""


class ConstraintError(SQLError):
    """A primary-key, NOT NULL or column-type constraint was violated."""


class QueryError(SQLError):
    """Any other rejected statement (bad parameter, unknown function...)."""

"""The relational database: one in-memory stdlib :mod:`sqlite3` connection.

The paper's Linear Road workflow "requires the support of a relational
database to store statistics on the road congestion as well as the recent
accidents detected".  :class:`Database` is that database behind the small
surface the engine uses: :meth:`~Database.execute` with ``$name`` /
``:name`` parameters returning a :class:`Result`, row-level
:meth:`~Database.state_dump` / :meth:`~Database.state_restore` for
checkpoints, and :meth:`~Database.explain` over ``EXPLAIN QUERY PLAN``.
SQLite prepares each statement text once and keeps it in the connection's
statement cache.  ``sqlite3`` errors surface as the :mod:`.errors` classes.
"""

from __future__ import annotations

import sqlite3
from collections import defaultdict
from typing import Any, Optional

from ..core.exceptions import CheckpointError
from .errors import (
    ConstraintError, QueryError, SchemaError, SQLError, SQLSyntaxError,
)

_SCHEMA_ERRORS = ("no such table", "no such column", "has no column named",
                  "already exists", "duplicate column name")
_SYNTAX_ERRORS = ("syntax error", "unrecognized token", "incomplete input")

_USER_TABLES = (
    "SELECT name FROM sqlite_schema "
    "WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
)


def _translate(exc: sqlite3.Error) -> SQLError:
    """The :mod:`.errors` class a ``sqlite3`` error stands for."""
    message = str(exc)
    if isinstance(exc, sqlite3.IntegrityError):
        kind = ConstraintError
    elif any(marker in message for marker in _SCHEMA_ERRORS):
        kind = SchemaError
    elif any(marker in message for marker in _SYNTAX_ERRORS):
        kind = SQLSyntaxError
    else:
        kind = QueryError
    return kind(message)


class Result:
    """The outcome of a statement: column names, rows, DML row count."""

    __slots__ = ("columns", "rows", "rowcount")

    def __init__(self, columns: list[str], rows: list[tuple], rowcount: int):
        self.columns = columns
        self.rows = rows
        self.rowcount = rowcount  # affected rows for DML, else 0

    def scalar(self) -> Any:
        """First column of the first row (None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def first(self) -> Optional[dict[str, Any]]:
        """The first row as a column -> value dict (None when empty)."""
        if not self.rows:
            return None
        return dict(zip(self.columns, self.rows[0]))

    def as_dicts(self) -> list[dict[str, Any]]:
        """Every row as a column -> value dict."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class Database:
    """An in-memory SQLite database with the engine's checkpoint protocol.

    The connection is shared by every thread that calls it (the live
    thread-per-actor director does): ``sqlite3`` is built serialized here
    (``sqlite3.threadsafety == 3``), so one connection is safe to share.
    """

    def __init__(self, name: str = "main"):
        self.name = name
        self._connection = sqlite3.connect(
            ":memory:", isolation_level=None, check_same_thread=False
        )
        self._execute = self._connection.execute

    def execute(
        self, sql: str, params: Optional[dict[str, Any]] = None
    ) -> Result:
        """Run one statement; ``$name`` markers read *params*."""
        try:
            cursor = self._execute(sql, params or ())
            rows = cursor.fetchall()
        except sqlite3.Error as exc:
            raise _translate(exc) from None
        description = cursor.description
        rowcount = cursor.rowcount  # -1 for anything but DML
        return Result(
            [column[0] for column in description] if description else [],
            rows,
            rowcount if rowcount > 0 else 0,
        )

    def explain(
        self, sql: str, params: Optional[dict[str, Any]] = None
    ) -> list[str]:
        """SQLite's plan of a SELECT, one line per step, children indented.

        The plan does not depend on parameter values: a parameter missing
        from *params* is bound to NULL.
        """
        if sql.lstrip()[:6].upper() != "SELECT":
            raise QueryError("explain() supports SELECT statements only")
        bindings = defaultdict(lambda: None, params or {})
        try:
            steps = self._execute("EXPLAIN QUERY PLAN " + sql, bindings)
        except sqlite3.Error as exc:
            raise _translate(exc) from None
        depth = {0: -1}
        lines = []
        for step, parent, _, detail in steps.fetchall():
            depth[step] = depth[parent] + 1
            lines.append("  " * depth[step] + detail)
        return lines

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Every table's rows by rowid (Checkpointable protocol).

        Schemas are structural (recreated by whatever initialization code
        issued the ``CREATE`` statements); the dump carries data only, so
        it restores in place on a freshly rebuilt database and every live
        reference to this object stays valid.
        """
        tables = {}
        for (name,) in self._execute(_USER_TABLES).fetchall():
            cursor = self._execute(f'SELECT rowid, * FROM "{name}"')
            columns = [column[0] for column in cursor.description[1:]]
            rows = {row[0]: dict(zip(columns, row[1:])) for row in cursor}
            tables[name] = {"rows": rows}
        return {"tables": tables}

    def state_restore(self, state: dict) -> None:
        """Replace each dumped table's rows, rowids included, in place.

        Older dumps carry extra keys (a rowid counter, a statement count);
        SQLite derives the next rowid from the rows, so they are ignored.
        """
        existing = {name for (name,) in self._execute(_USER_TABLES)}
        for name, table_state in state["tables"].items():
            if name not in existing:
                raise CheckpointError(
                    f"cannot restore table {name!r}: the rebuilt database "
                    "has no such table (schema mismatch — was the engine "
                    "rebuilt with the same builder?)"
                )
            cursor = self._execute(f'SELECT * FROM "{name}" LIMIT 0')
            columns = [column[0] for column in cursor.description]
            listed = ", ".join(f'"{column}"' for column in columns)
            marks = ", ".join("?" * (len(columns) + 1))
            self._execute(f'DELETE FROM "{name}"')
            self._connection.executemany(
                f'INSERT INTO "{name}" (rowid, {listed}) VALUES ({marks})',
                [
                    (rowid, *(row.get(column) for column in columns))
                    for rowid, row in table_state["rows"].items()
                ],
            )

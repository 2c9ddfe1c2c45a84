"""The database facade: statements are prepared once and cached by text.

The Linear Road workflow executes the same parameterized statements tens of
thousands of times per run, so :meth:`Database.execute` keeps one
:class:`~repro.sqldb.planner.Prepared` plan per statement text — parsed,
name-resolved, access path chosen and every expression compiled to a
closure on first use; parameters are supplied separately per call
(``$name``/``:name`` markers).  A plan records the tables (and their index
sets) it was compiled against and is rebuilt when the catalog has moved on.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from .errors import QueryError, SchemaError
from .parser import parse
from .planner import Prepared, Result, prepare
from .table import Column, Table


class Database:
    """An in-memory relational database with a SQL-subset front end."""

    def __init__(self, name: str = "main"):
        self.name = name
        self.tables: dict[str, Table] = {}
        #: Prepared plans by statement text: derived state, never dumped.
        self._plans: dict[str, Prepared] = {}
        self.statements_executed = 0

    def __getstate__(self) -> dict:
        """Copies and pickles drop the plans (closures do not pickle); the
        copy prepares its own against its own tables on first use."""
        return {**self.__dict__, "_plans": {}}

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        table = self.tables.get(name)
        if table is None:
            raise SchemaError(f"no such table {name!r}")
        return table

    def create_table(
        self,
        name: str,
        columns: Iterable[Column],
        primary_key: tuple[str, ...] = (),
        if_not_exists: bool = False,
    ) -> Table:
        if name in self.tables:
            if if_not_exists:
                return self.tables[name]
            raise SchemaError(f"table {name!r} already exists")
        table = Table(name, columns, primary_key)
        self.tables[name] = table
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        if name not in self.tables:
            if if_exists:
                return
            raise SchemaError(f"no such table {name!r}")
        del self.tables[name]

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot every table's rows (Checkpointable protocol).

        Schemas are structural (recreated by whatever initialization code
        issued the ``CREATE TABLE`` statements); the dump carries data
        only, so it restores in place on a freshly rebuilt database and
        all live references to that database object remain valid.
        """
        return {
            "tables": {
                name: table.state_dump()
                for name, table in self.tables.items()
            },
            "statements_executed": self.statements_executed,
        }

    def state_restore(self, state: dict) -> None:
        """Re-apply dumped rows onto the rebuilt (same-schema) database."""
        from ..core.exceptions import CheckpointError

        for name, table_state in state["tables"].items():
            table = self.tables.get(name)
            if table is None:
                raise CheckpointError(
                    f"cannot restore table {name!r}: the rebuilt database "
                    "has no such table (schema mismatch — was the engine "
                    "rebuilt with the same builder?)"
                )
            table.state_restore(table_state)
        self.statements_executed = int(state["statements_executed"])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, sql: str, params: Optional[dict[str, Any]] = None
    ) -> Result:
        """Run one statement, preparing it on first use."""
        plan = self._plan(sql)
        self.statements_executed += 1
        frame = [None] * plan.frame_size
        frame[0] = params or {}
        return plan.run(frame)

    def _plan(self, sql: str) -> Prepared:
        """The cached plan of *sql*, (re)prepared if the catalog moved on."""
        plan = self._plans.get(sql)
        if plan is not None:
            tables = self.tables
            for name, table, version in plan.tables:
                if (
                    tables.get(name) is not table
                    or table.schema_version != version
                ):
                    break
            else:
                return plan
        plan = self._plans[sql] = prepare(self, parse(sql))
        return plan

    def explain(
        self, sql: str, params: Optional[dict[str, Any]] = None
    ) -> list[str]:
        """The access path and join strategies of a SELECT (EXPLAIN-lite).

        This prints the prepared plan :meth:`execute` runs; the plan does
        not depend on parameter values, so *params* is accepted and unused.
        """
        lines = self._plan(sql).explain
        if lines is None:
            raise QueryError("explain() supports SELECT statements only")
        return list(lines)

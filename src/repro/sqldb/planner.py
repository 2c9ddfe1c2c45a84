"""Statement preparation: every statement compiles once into a plan.

:func:`prepare` turns a parsed statement into a :class:`Prepared` whose
``run(frame)`` does only the per-call work.  The planner is deliberately
simple but real:

* FROM with alias binding and INNER/LEFT/CROSS joins (hash-accelerated for
  simple equi-conditions, nested loop otherwise);
* access-path selection, fixed at prepare time — equality conjuncts in the
  WHERE clause that bind all columns of the primary key or of a secondary
  index route the scan through that index (this is what makes the Linear
  Road toll lookups cheap); everything else is a heap scan;
* grouped and ungrouped aggregation, HAVING, ORDER BY (multi-key, NULLs
  last ascending), DISTINCT, LIMIT/OFFSET;
* correlated subqueries: nested plans compiled with the enclosing scope as
  their parent, sharing the statement's execution frame
  (see :mod:`.expressions`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional

from . import ast
from .errors import QueryError
from .expressions import Compiled, ExpressionCompiler, Frame, raises, Scope
from .functions import AGGREGATE_NAMES, aggregate
from .table import Column, HashIndex, Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database


@dataclass
class Result:
    """The outcome of a statement."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0  # affected rows for DML

    def scalar(self) -> Any:
        """First column of the first row (None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def first(self) -> Optional[dict[str, Any]]:
        if not self.rows:
            return None
        return dict(zip(self.columns, self.rows[0]))

    def as_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


@dataclass
class Prepared:
    """A statement compiled against the catalog it names."""

    #: Runs on a frame of ``frame_size`` slots whose slot 0 is the params.
    run: Callable[[Frame], Result]
    frame_size: int
    #: ``(name, table, schema_version)`` of every table compiled against;
    #: the plan is stale once the catalog disagrees with any of them.
    tables: tuple[tuple[str, Table, int], ...]
    #: A SELECT's access path and join strategies, one line per table.
    explain: Optional[list[str]] = None


class Preparation(ExpressionCompiler):
    """Compile state shared by one statement and its nested subqueries."""

    def __init__(self, database: "Database"):
        self.database = database
        self.frame_size = 1  # slot 0 holds the call's parameters
        self.tables: dict[str, Table] = {}

    def table(self, name: str) -> Table:
        table = self.tables[name] = self.database.table(name)
        return table

    def slot(self) -> int:
        self.frame_size += 1
        return self.frame_size - 1

    def select(
        self, select: ast.Select, outer: Optional[Scope]
    ) -> "SelectPlan":
        return SelectPlan(self, select, outer)

    def prepared(
        self,
        run: Callable[[Frame], Result],
        explain: Optional[list[str]] = None,
    ) -> Prepared:
        compiled_against = tuple(
            (name, table, table.schema_version)
            for name, table in self.tables.items()
        )
        return Prepared(run, self.frame_size, compiled_against, explain)


def prepare(database: "Database", statement: ast.Statement) -> Prepared:
    """Compile *statement* against *database*'s current catalog."""
    return _PREPARERS[type(statement)](Preparation(database), statement)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
#: The sub-expressions an aggregate may hide in (not subquery bodies).
_OPERANDS: dict[type, Callable[[Any], tuple]] = {
    ast.FunctionCall: lambda e: e.args,
    ast.Unary: lambda e: (e.operand,),
    ast.Binary: lambda e: (e.left, e.right),
    ast.Case: lambda e: (
        e.operand,
        *(part for when in e.whens for part in when),
        e.else_result,
    ),
    ast.Between: lambda e: (e.operand, e.low, e.high),
    ast.IsNull: lambda e: (e.operand,),
    ast.Like: lambda e: (e.operand,),
    ast.InList: lambda e: (e.operand,),
    ast.InSubquery: lambda e: (e.operand,),
}


def _collect_aggregates(
    expr: Optional[ast.Expression], out: list[ast.FunctionCall]
) -> None:
    if isinstance(expr, ast.FunctionCall) and expr.name in AGGREGATE_NAMES:
        if expr not in out:
            out.append(expr)
        return
    for operand in _OPERANDS.get(type(expr), lambda e: ())(expr):
        _collect_aggregates(operand, out)


def _is_constant(expr: ast.Expression) -> bool:
    if isinstance(expr, ast.Unary):
        return _is_constant(expr.operand)
    return isinstance(expr, (ast.Literal, ast.Param))


def _equality_conjuncts(
    where: Optional[ast.Expression], binding: str
) -> list[tuple[str, ast.Expression]]:
    """``(column, constant)`` for the top-level AND-ed ``col = <constant>``.

    The constant side may hold literals and parameters only; the column
    side must be unqualified or qualified with *binding*.  In WHERE order:
    a later conjunct on the same column overrides an earlier one.
    """
    if isinstance(where, ast.Binary) and where.op == "AND":
        return _equality_conjuncts(where.left, binding) + _equality_conjuncts(
            where.right, binding
        )
    if isinstance(where, ast.Binary) and where.op == "=":
        for column_side, value_side in (
            (where.left, where.right),
            (where.right, where.left),
        ):
            if (
                isinstance(column_side, ast.ColumnRef)
                and column_side.table in (None, binding)
                and _is_constant(value_side)
            ):
                return [(column_side.name, value_side)]
    return []


def _equi_join(
    join: ast.Join, binding: str
) -> Optional[tuple[str, ast.Expression]]:
    """(right_column, left_expression) for ``left = right.col`` ONs."""
    condition = join.condition
    if not (isinstance(condition, ast.Binary) and condition.op == "="):
        return None
    for right_side, left_side in (
        (condition.left, condition.right),
        (condition.right, condition.left),
    ):
        if (
            isinstance(right_side, ast.ColumnRef)
            and right_side.table == binding
            and not (
                isinstance(left_side, ast.ColumnRef)
                and left_side.table == binding
            )
        ):
            return right_side.name, left_side
    return None


def _access_path(
    table: Optional[Table], conjuncts: list[tuple[str, Any, Compiled]]
) -> tuple[Optional[HashIndex], list[tuple[str, Any, Compiled]]]:
    """The most selective index *conjuncts* cover, and its key's conjuncts
    in index-column order (the later of two on one column wins)."""
    bound = {conjunct[0]: conjunct for conjunct in conjuncts}
    index = table.best_index(set(bound)) if bound else None
    if index is None:
        return None, []
    return index, [bound[column] for column in index.columns]


class _Join(NamedTuple):
    """One compiled join step; the strategy is fixed at prepare time."""

    table: Table
    binding: str
    duplicate: bool  # the binding name is already taken on the left
    left_outer: bool
    hash_column: Optional[str]  # equi-join: bucket the right side by this
    hash_key: Optional[Compiled]  # ... and probe with this left expression
    condition: Optional[Compiled]  # else nested loop (None: every pair)


class SelectPlan:
    """One SELECT, top-level or nested, compiled against the catalog.

    The table bindings own consecutive frame slots.  A candidate is the
    tuple of rows of one join combination (a bare row without joins); it is
    *placed* into those slots before a closure reads it.
    """

    def __init__(
        self, prep: Preparation, select: ast.Select, outer: Optional[Scope]
    ):
        refs = [select.table, *(join.table for join in select.joins)]
        if select.table is None:
            refs = []
        tables = [prep.table(ref.name) for ref in refs]
        self.lo = prep.frame_size
        bindings = [
            (ref.binding, (prep.slot(), table.columns))
            for ref, table in zip(refs, tables)
        ]
        #: Where a candidate goes in the frame: one slot, or the slice of
        #: all bindings when there are joins (FROM-less: a spare slot).
        self.place: "int | slice" = (
            slice(self.lo, prep.frame_size)
            if select.joins
            else (self.lo if refs else prep.slot())
        )
        rows = Scope(dict(bindings), outer)

        # Access path of the driving table.
        self.table = tables[0] if tables else None
        self.conjuncts = [
            (column, expr, prep.compile(expr, rows))
            for column, expr in (
                _equality_conjuncts(select.where, refs[0].binding)
                if refs
                else []
            )
        ]
        self.index, self.key = _access_path(self.table, self.conjuncts)
        if self.table is None:
            self.explain = ["CONSTANT"]
        elif self.index is None:
            self.explain = [f"SCAN {self.table.name}"]
        else:
            self.explain = [
                f"INDEX {self.table.name} USING {self.index.name}"
                f"({','.join(self.index.columns)})"
            ]

        self.joins: list[_Join] = []
        for position, join in enumerate(select.joins, start=1):
            ref = join.table
            left = Scope(dict(bindings[:position]), outer)
            equi = _equi_join(join, ref.binding)
            if join.kind == "CROSS":
                self.explain.append(f"CROSS {ref.name}")
            elif equi is not None:
                self.explain.append(
                    f"HASH {join.kind} JOIN {ref.name} ON "
                    f"{ref.binding}.{equi[0]}"
                )
            else:
                self.explain.append(
                    f"NESTED LOOP {join.kind} JOIN {ref.name}"
                )
            both = Scope(dict(bindings[: position + 1]), outer)
            self.joins.append(
                _Join(
                    tables[position],
                    ref.binding,
                    ref.binding in left.tables,
                    join.kind == "LEFT",
                    equi[0] if equi else None,
                    prep.compile(equi[1], left) if equi else None,
                    None if equi else prep.compile(join.condition, both),
                )
            )
        self.where = prep.compile(select.where, rows)

        nodes: list[ast.FunctionCall] = []
        for item in select.items:
            _collect_aggregates(item.expression, nodes)
        _collect_aggregates(select.having, nodes)
        self.aggregated = bool(select.group_by or nodes)
        scopes = [rows]
        if self.aggregated:
            for order in select.order_by:
                _collect_aggregates(order.expression, nodes)
            self.group_by = [
                prep.compile(expr, rows) for expr in select.group_by
            ]
            self.aggregates = [
                (
                    node.name,
                    node.star,
                    node.distinct,
                    None if node.star else prep.compile(node.args[0], rows),
                )
                for node in nodes
            ]
            self.aggregate_slot = prep.slot()
            positions = {node: index for index, node in enumerate(nodes)}
            # An ungrouped aggregate over no rows still yields one row; its
            # expressions see no table binding of this level.
            scopes = [
                Scope(visible, outer, positions, self.aggregate_slot)
                for visible in (dict(bindings), {})
            ]
        outputs = [self._output(prep, select, refs, scope) for scope in scopes]
        #: Output names are fixed by the catalog; an invalid star surfaces
        #: where the projection would be set up, not at prepare time.
        self.columns, self.columns_error = outputs[0][:2]
        self.outputs = [output[2:] for output in outputs]

        self.distinct = select.distinct
        self.order: list[tuple[int, bool]] = []
        self.order_error: Optional[str] = None
        try:
            self.order = [
                (_order_position(by.expression, self.columns), by.ascending)
                for by in select.order_by
            ]
        except QueryError as exc:
            self.order_error = str(exc)
        self.offset = prep.compile(select.offset, Scope({}))
        self.limit = prep.compile(select.limit, Scope({}))

    @staticmethod
    def _output(
        prep: Preparation,
        select: ast.Select,
        refs: list[ast.TableRef],
        scope: Scope,
    ) -> tuple[list[str], Optional[str], Callable[[Frame], tuple], Any]:
        """(column names, star error, projection, HAVING) under *scope*."""
        names: list[str] = []
        closures: list[Compiled] = []
        error = None
        for index, item in enumerate(select.items):
            expr = item.expression
            if expr is not None:
                closures.append(prep.compile(expr, scope))
                if item.alias:
                    names.append(item.alias)
                elif isinstance(expr, ast.ColumnRef):
                    names.append(expr.name)
                else:
                    names.append(f"col{index}")
                continue
            if not refs:
                error = error or "SELECT * requires a FROM clause"
            starred = [ref.binding for ref in refs]
            if item.table_star is not None:
                starred = [item.table_star]
            for binding in starred:
                if binding not in scope.tables:
                    message = f"unknown table {binding!r} in star"
                    error = error or message
                    closures.append(raises(message))
                    continue
                slot, columns = scope.tables[binding]
                for column in columns:
                    names.append(column)
                    closures.append(
                        lambda frame, slot=slot, column=column: (
                            frame[slot][column]
                        )
                    )
        return (
            names,
            error,
            lambda frame: tuple([closure(frame) for closure in closures]),
            prep.compile(select.having, scope),
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def rows(
        self, frame: Frame, limit_hint: Optional[int] = None
    ) -> list[tuple]:
        """Run against *frame* (parameters and outer rows already in it)."""
        if self.table is None:
            candidates: list = [None]  # FROM-less: one row of no columns
        else:
            candidates = self._driving_rows(frame)
        if self.joins:
            candidates = [(row,) for row in candidates]
            for width, join in enumerate(self.joins, start=1):
                candidates = self._join(
                    frame, candidates, join, self.lo + width
                )
        place = self.place
        where = self.where
        if where is not None and candidates:
            kept = []
            for candidate in candidates:
                frame[place] = candidate
                if where(frame):
                    kept.append(candidate)
            candidates = kept
        if self.aggregated:
            out = self._aggregate_rows(frame, candidates)
        else:
            if self.columns_error is not None:
                raise QueryError(self.columns_error)
            project = self.outputs[0][0]
            out = []
            for candidate in candidates:
                frame[place] = candidate
                out.append(project(frame))
                if limit_hint is not None and len(out) >= limit_hint:
                    break
        if self.distinct:
            out = list(dict.fromkeys(out))
        if out and (self.order or self.order_error):
            if self.order_error is not None:
                raise QueryError(self.order_error)
            out.sort(key=self._sort_key)
        if self.offset is not None:
            out = out[int(self.offset(frame)):]
        if self.limit is not None:
            out = out[: int(self.limit(frame))]
        return out

    def _driving_rows(self, frame: Frame) -> list[dict[str, Any]]:
        index, key = self.index, self.key
        if index is not None:
            try:
                values = tuple([closure(frame) for _, _, closure in key])
            except QueryError:
                # A key parameter is missing.  That error belongs to the
                # WHERE evaluation, if a row gets that far: probe with the
                # conjuncts that do evaluate, as if prepared without it.
                usable = []
                for conjunct in self.conjuncts:
                    try:
                        conjunct[2](frame)
                    except QueryError:
                        continue
                    usable.append(conjunct)
                index, key = _access_path(self.table, usable)
                values = tuple([closure(frame) for _, _, closure in key])
        if index is None:
            return [row for _, row in self.table.scan()]
        try:
            return [row for _, row in self.table.lookup_index(index, values)]
        except TypeError:
            for (_, expr, _), value in zip(key, values):
                while isinstance(expr, ast.Unary):
                    expr = expr.operand
                try:
                    hash(value)
                except TypeError:
                    raise QueryError(
                        f"parameter ${expr.name} is not hashable "
                        f"({value!r}): cannot probe index {index.name!r}"
                    ) from None
            raise

    def _join(
        self, frame: Frame, candidates: list[tuple], join: _Join, hi: int
    ) -> list[tuple]:
        """Extend every candidate with its matching rows of *join*'s table;
        the new binding's slot is *hi*."""
        if candidates and join.duplicate:
            raise QueryError(f"duplicate table binding {join.binding!r}")
        rows = [row for _, row in join.table.scan()]
        left = slice(self.lo, hi)
        buckets: dict[Any, list] = {}
        if join.hash_column is not None:
            for row in rows:
                buckets.setdefault(row[join.hash_column], []).append(row)
        out = []
        for candidate in candidates:
            frame[left] = candidate
            if join.hash_column is not None:
                value = join.hash_key(frame)
                matches = buckets.get(value, []) if value is not None else []
            elif join.condition is None:
                matches = rows
            else:
                matches = []
                for row in rows:
                    frame[hi] = row
                    if join.condition(frame):
                        matches.append(row)
            if matches:
                out.extend([candidate + (row,) for row in matches])
            elif join.left_outer:
                out.append(candidate + (dict.fromkeys(join.table.columns),))
        return out

    def _aggregate_rows(self, frame: Frame, candidates: list) -> list[tuple]:
        place = self.place
        groups: dict[tuple, list] = {}
        if self.group_by:
            for candidate in candidates:
                frame[place] = candidate
                key = tuple([closure(frame) for closure in self.group_by])
                groups.setdefault(key, []).append(candidate)
        else:
            groups[()] = candidates
        if self.columns_error is not None:
            raise QueryError(self.columns_error)
        out = []
        for members in groups.values():
            values = []
            for name, star, distinct, argument in self.aggregates:
                if star:
                    inputs: list[Any] = [1] * len(members)
                else:
                    inputs = []
                    for member in members:
                        frame[place] = member
                        inputs.append(argument(frame))
                values.append(aggregate(name, inputs, star, distinct))
            frame[self.aggregate_slot] = values
            if members:
                frame[place] = members[0]
            project, having = self.outputs[0 if members else 1]
            if having is None or having(frame):
                out.append(project(frame))
        return out

    def _sort_key(self, row: tuple) -> list:
        keys = []
        for position, ascending in self.order:
            value = row[position]
            keys.append(
                (value is None, value if ascending else _Reverse(value))
            )
        return keys


def _order_position(expr: ast.Expression, columns: list[str]) -> int:
    """The output position an ORDER BY item sorts on."""
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
        if 0 <= expr.value - 1 < len(columns):
            return expr.value - 1
        raise QueryError(f"ORDER BY position {expr.value} out of range")
    if isinstance(expr, ast.ColumnRef) and expr.name in columns:
        # Qualified or not: ORDER BY targets an output column, whose name
        # is the bare column name (or its alias); the last one wins.
        return len(columns) - 1 - columns[::-1].index(expr.name)
    raise QueryError(
        f"ORDER BY supports output columns and positions (got {expr!r})"
    )


class _Reverse:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Reverse") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reverse) and self.value == other.value


# ----------------------------------------------------------------------
# Statement preparers
# ----------------------------------------------------------------------
def _prepare_select(prep: Preparation, statement: ast.Select) -> Prepared:
    plan = prep.select(statement, None)
    return prep.prepared(
        lambda frame: Result(list(plan.columns), plan.rows(frame)),
        plan.explain,
    )


def _prepare_insert(prep: Preparation, statement: ast.Insert) -> Prepared:
    table = prep.table(statement.table)
    columns = statement.columns or tuple(table.column_names)
    if len(columns) != len(set(columns)):
        raise QueryError("duplicate column in INSERT list")
    for row in statement.rows:
        if len(row) != len(columns):
            raise QueryError(
                f"INSERT expects {len(columns)} values, got {len(row)}"
            )
    bare = Scope({})
    rows = [
        [(name, prep.compile(expr, bare)) for name, expr in zip(columns, row)]
        for row in statement.rows
    ]
    or_replace = statement.or_replace

    def run(frame: Frame) -> Result:
        for row in rows:
            values = {name: closure(frame) for name, closure in row}
            table.insert(values, or_replace=or_replace)
        return Result(rowcount=len(rows))

    return prep.prepared(run)


def _prepare_update_or_delete(
    prep: Preparation, statement: "ast.Update | ast.Delete"
) -> Prepared:
    table = prep.table(statement.table)
    slot = prep.slot()
    scope = Scope({statement.table: (slot, table.columns)})
    where = prep.compile(statement.where, scope)
    deleting = isinstance(statement, ast.Delete)
    assignments = [
        (assign.column, prep.compile(assign.value, scope))
        for assign in (() if deleting else statement.assignments)
    ]

    def run(frame: Frame) -> Result:
        touched = []
        for rowid, row in table.scan(snapshot=True):
            frame[slot] = row
            if where is None or where(frame):
                changes = {name: value(frame) for name, value in assignments}
                touched.append((rowid, changes))
        if deleting:
            return Result(
                rowcount=table.delete_rowids([rowid for rowid, _ in touched])
            )
        for rowid, changes in touched:
            table.update_row(rowid, changes)
        return Result(rowcount=len(touched))

    return prep.prepared(run)


def _prepare_ddl(prep: Preparation, statement: ast.Statement) -> Prepared:
    database = prep.database

    def run(frame: Frame) -> Result:
        if isinstance(statement, ast.CreateTable):
            columns = [
                Column(col.name, col.type_name, col.not_null)
                for col in statement.columns
            ]
            database.create_table(
                statement.name,
                columns,
                statement.primary_key,
                statement.if_not_exists,
            )
        elif isinstance(statement, ast.DropTable):
            database.drop_table(statement.name, statement.if_exists)
        else:
            database.table(statement.table).create_index(
                statement.name, statement.columns
            )
        return Result()

    return prep.prepared(run)


_PREPARERS: dict[type, Callable[[Preparation, Any], Prepared]] = {
    ast.Select: _prepare_select,
    ast.Insert: _prepare_insert,
    ast.Update: _prepare_update_or_delete,
    ast.Delete: _prepare_update_or_delete,
    ast.CreateTable: _prepare_ddl,
    ast.DropTable: _prepare_ddl,
    ast.CreateIndex: _prepare_ddl,
}

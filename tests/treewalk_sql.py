"""Tree-walking SQL interpreter (the pre-compile code), kept as an oracle.

This module reproduces, verbatim, how ``repro.sqldb`` executed statements
before prepared plans landed: an ``Evaluator`` that dispatches every AST
node by name on every evaluation, a run-time ``Scope`` chain of row dicts,
``_equality_bindings`` re-derived from the WHERE tree on every call and a
``SelectExecutor`` built per SELECT.  :class:`TreeWalkDatabase` runs a
statement this way over the tables of a real :class:`Database`.

It exists solely as the oracle for ``test_property_sqldb.py``: the compiled
plans must return the **identical** rows, column names and error type +
message over random expressions, SELECTs and table contents.  Keep it
byte-for-byte dumb, as ``naive_schedulers.py`` and ``naive_window_scan.py``
are; any cleverness here defeats the point of the oracle.

One known difference is deliberate: ``_eval_Case`` below still compares a
simple CASE's operand with Python ``==``, so ``CASE x WHEN NULL`` matches a
NULL ``x``.  The compiled CASE applies SQL's 3-valued ``operand = when``
(never true for NULL); the differential test does not generate a NULL-able
operand against a NULL-able WHEN for that reason, and
``test_sql_semantics.py`` pins the fixed behaviour.
"""

from __future__ import annotations

import re
from typing import Any, Iterator, Optional

from repro.sqldb import ast
from repro.sqldb.database import Database
from repro.sqldb.errors import QueryError
from repro.sqldb.functions import AGGREGATE_NAMES, aggregate, call_scalar
from repro.sqldb.parser import parse
from repro.sqldb.planner import Result
from repro.sqldb.table import Column


class Scope:
    """One level of name resolution: binding-name -> row dict."""

    def __init__(
        self,
        bindings: dict[str, dict[str, Any]],
        parent: Optional["Scope"] = None,
        aggregates: Optional[dict[ast.Expression, Any]] = None,
        aliases: Optional[dict[str, Any]] = None,
    ):
        self.bindings = bindings
        self.parent = parent
        #: Pre-computed aggregate values for the current group, by AST node.
        self.aggregates = aggregates or {}
        #: Select-list aliases visible to HAVING / ORDER BY.
        self.aliases = aliases or {}

    def child(self, bindings: dict[str, dict[str, Any]]) -> "Scope":
        return Scope(bindings, parent=self)

    # ------------------------------------------------------------------
    def resolve(self, ref: ast.ColumnRef) -> Any:
        scope: Optional[Scope] = self
        while scope is not None:
            value = scope._resolve_local(ref)
            if value is not _MISSING:
                return value
            scope = scope.parent
        raise QueryError(f"unknown column {ref}")

    def _resolve_local(self, ref: ast.ColumnRef) -> Any:
        if ref.table is not None:
            row = self.bindings.get(ref.table)
            if row is None:
                return _MISSING
            if ref.name not in row:
                raise QueryError(
                    f"table {ref.table!r} has no column {ref.name!r}"
                )
            return row[ref.name]
        matches = [
            row for row in self.bindings.values() if ref.name in row
        ]
        if len(matches) > 1:
            raise QueryError(f"ambiguous column {ref.name!r}")
        if matches:
            return matches[0][ref.name]
        if ref.name in self.aliases:
            return self.aliases[ref.name]
        return _MISSING


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


_MISSING = _Missing()


def is_truthy(value: Any) -> bool:
    """SQL WHERE semantics: NULL (None) filters the row out."""
    return bool(value) and value is not None


class Evaluator:
    """Evaluates expression nodes; owns parameter values and the database
    handle (needed to execute subqueries)."""

    def __init__(self, database: Database, params: dict[str, Any]):
        self.database = database
        self.params = params

    # ------------------------------------------------------------------
    def eval(self, expr: ast.Expression, scope: Scope) -> Any:
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise QueryError(f"cannot evaluate {type(expr).__name__}")
        return method(expr, scope)

    # ------------------------------------------------------------------
    def _eval_Literal(self, expr: ast.Literal, scope: Scope) -> Any:
        return expr.value

    def _eval_ColumnRef(self, expr: ast.ColumnRef, scope: Scope) -> Any:
        return scope.resolve(expr)

    def _eval_Param(self, expr: ast.Param, scope: Scope) -> Any:
        if expr.name not in self.params:
            raise QueryError(f"missing parameter ${expr.name}")
        return self.params[expr.name]

    def _eval_Unary(self, expr: ast.Unary, scope: Scope) -> Any:
        value = self.eval(expr.operand, scope)
        if expr.op == "NOT":
            if value is None:
                return None
            return not is_truthy(value)
        if value is None:
            return None
        return -value if expr.op == "-" else +value

    def _eval_Binary(self, expr: ast.Binary, scope: Scope) -> Any:
        op = expr.op
        if op == "AND":
            left = self.eval(expr.left, scope)
            if left is not None and not is_truthy(left):
                return False
            right = self.eval(expr.right, scope)
            if right is not None and not is_truthy(right):
                return False
            if left is None or right is None:
                return None
            return True
        if op == "OR":
            left = self.eval(expr.left, scope)
            if left is not None and is_truthy(left):
                return True
            right = self.eval(expr.right, scope)
            if right is not None and is_truthy(right):
                return True
            if left is None or right is None:
                return None
            return False
        left = self.eval(expr.left, scope)
        right = self.eval(expr.right, scope)
        if left is None or right is None:
            return None
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                return None  # SQL-style: division by zero yields NULL
            result = left / right
            return result
        if op == "%":
            if right == 0:
                return None
            return left % right
        if op == "||":
            return f"{left}{right}"
        raise QueryError(f"unknown operator {op!r}")

    def _eval_FunctionCall(self, expr: ast.FunctionCall, scope: Scope) -> Any:
        if expr.name in AGGREGATE_NAMES:
            search: Optional[Scope] = scope
            while search is not None:
                if expr in search.aggregates:
                    return search.aggregates[expr]
                search = search.parent
            raise QueryError(
                f"aggregate {expr.name} used outside an aggregate query"
            )
        args = [self.eval(arg, scope) for arg in expr.args]
        return call_scalar(expr.name, args)

    def _eval_Case(self, expr: ast.Case, scope: Scope) -> Any:
        if expr.operand is not None:
            subject = self.eval(expr.operand, scope)
            for condition, result in expr.whens:
                if self.eval(condition, scope) == subject:
                    return self.eval(result, scope)
        else:
            for condition, result in expr.whens:
                if is_truthy(self.eval(condition, scope)):
                    return self.eval(result, scope)
        if expr.else_result is not None:
            return self.eval(expr.else_result, scope)
        return None

    def _eval_ScalarSubquery(self, expr: ast.ScalarSubquery, scope: Scope) -> Any:
        result = self.database._execute_select(expr.select, self.params, scope)
        if not result.rows:
            return None
        if len(result.rows) > 1:
            raise QueryError("scalar subquery returned more than one row")
        row = result.rows[0]
        if len(row) != 1:
            raise QueryError("scalar subquery must select a single column")
        return row[0]

    def _eval_ExistsSubquery(self, expr: ast.ExistsSubquery, scope: Scope) -> Any:
        result = self.database._execute_select(
            expr.select, self.params, scope, limit_hint=1
        )
        found = bool(result.rows)
        return not found if expr.negated else found

    def _eval_InList(self, expr: ast.InList, scope: Scope) -> Any:
        value = self.eval(expr.operand, scope)
        if value is None:
            return None
        candidates = [self.eval(item, scope) for item in expr.items]
        found = value in [c for c in candidates if c is not None]
        if not found and any(c is None for c in candidates):
            return None
        return not found if expr.negated else found

    def _eval_InSubquery(self, expr: ast.InSubquery, scope: Scope) -> Any:
        value = self.eval(expr.operand, scope)
        if value is None:
            return None
        result = self.database._execute_select(expr.select, self.params, scope)
        values = [row[0] for row in result.rows]
        found = value in [v for v in values if v is not None]
        if not found and any(v is None for v in values):
            return None
        return not found if expr.negated else found

    def _eval_Between(self, expr: ast.Between, scope: Scope) -> Any:
        value = self.eval(expr.operand, scope)
        low = self.eval(expr.low, scope)
        high = self.eval(expr.high, scope)
        if value is None or low is None or high is None:
            return None
        inside = low <= value <= high
        return not inside if expr.negated else inside

    def _eval_IsNull(self, expr: ast.IsNull, scope: Scope) -> Any:
        value = self.eval(expr.operand, scope)
        result = value is None
        return not result if expr.negated else result

    def _eval_Like(self, expr: ast.Like, scope: Scope) -> Any:
        value = self.eval(expr.operand, scope)
        pattern = self.eval(expr.pattern, scope)
        if value is None or pattern is None:
            return None
        regex = _like_to_regex(str(pattern))
        matched = regex.fullmatch(str(value)) is not None
        return not matched if expr.negated else matched


def _like_to_regex(pattern: str) -> "re.Pattern[str]":
    pieces = []
    for ch in pattern:
        if ch == "%":
            pieces.append(".*")
        elif ch == "_":
            pieces.append(".")
        else:
            pieces.append(re.escape(ch))
    return re.compile("".join(pieces), re.IGNORECASE)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _contains_aggregate(expr: Optional[ast.Expression]) -> bool:
    if expr is None:
        return False
    if isinstance(expr, ast.FunctionCall):
        if expr.name in AGGREGATE_NAMES:
            return True
        return any(_contains_aggregate(arg) for arg in expr.args)
    if isinstance(expr, ast.Unary):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.Binary):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, ast.Case):
        parts = [expr.operand, expr.else_result]
        for condition, result in expr.whens:
            parts.extend((condition, result))
        return any(_contains_aggregate(part) for part in parts)
    if isinstance(expr, (ast.Between,)):
        return any(
            _contains_aggregate(part)
            for part in (expr.operand, expr.low, expr.high)
        )
    if isinstance(expr, (ast.IsNull, ast.Like, ast.InList, ast.InSubquery)):
        return _contains_aggregate(expr.operand)
    return False


def _collect_aggregates(
    expr: Optional[ast.Expression], out: list[ast.FunctionCall]
) -> None:
    if expr is None:
        return
    if isinstance(expr, ast.FunctionCall):
        if expr.name in AGGREGATE_NAMES:
            if expr not in out:
                out.append(expr)
            return
        for arg in expr.args:
            _collect_aggregates(arg, out)
        return
    if isinstance(expr, ast.Unary):
        _collect_aggregates(expr.operand, out)
    elif isinstance(expr, ast.Binary):
        _collect_aggregates(expr.left, out)
        _collect_aggregates(expr.right, out)
    elif isinstance(expr, ast.Case):
        _collect_aggregates(expr.operand, out)
        for condition, result in expr.whens:
            _collect_aggregates(condition, out)
            _collect_aggregates(result, out)
        _collect_aggregates(expr.else_result, out)
    elif isinstance(expr, ast.Between):
        _collect_aggregates(expr.operand, out)
        _collect_aggregates(expr.low, out)
        _collect_aggregates(expr.high, out)
    elif isinstance(expr, (ast.IsNull, ast.Like, ast.InList, ast.InSubquery)):
        _collect_aggregates(expr.operand, out)


def _equality_bindings(
    where: Optional[ast.Expression],
    binding: str,
    evaluator: Evaluator,
    outer_scope: Optional[Scope],
) -> dict[str, Any]:
    """Columns bound to constants by top-level AND-ed equality conjuncts.

    Only conjuncts of the form ``col = <constant>`` participate, where the
    constant side contains no column reference into the *current* table
    binding (literals, parameters and outer-scope correlations qualify).
    """
    bindings: dict[str, Any] = {}

    def visit(expr: Optional[ast.Expression]) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Binary) and expr.op == "AND":
            visit(expr.left)
            visit(expr.right)
            return
        if not (isinstance(expr, ast.Binary) and expr.op == "="):
            return
        for column_side, value_side in (
            (expr.left, expr.right),
            (expr.right, expr.left),
        ):
            if not isinstance(column_side, ast.ColumnRef):
                continue
            if column_side.table is not None and column_side.table != binding:
                continue
            if not _is_constant(value_side):
                continue
            try:
                value = evaluator.eval(
                    value_side, outer_scope or Scope({})
                )
            except QueryError:
                continue
            bindings[column_side.name] = value
            return

    def _is_constant(expr: ast.Expression) -> bool:
        if isinstance(expr, (ast.Literal, ast.Param)):
            return True
        if isinstance(expr, ast.Unary):
            return _is_constant(expr.operand)
        if isinstance(expr, ast.ColumnRef):
            # A correlated outer reference is constant w.r.t. this scan —
            # but only when it cannot resolve inside this table binding.
            return False
        return False

    visit(where)
    return bindings


class SelectExecutor:
    """Executes one SELECT statement."""

    def __init__(
        self,
        database: Database,
        select: ast.Select,
        params: dict[str, Any],
        outer_scope: Optional[Scope] = None,
        limit_hint: Optional[int] = None,
    ):
        self.database = database
        self.select = select
        self.evaluator = Evaluator(database, params)
        self.outer_scope = outer_scope
        self.limit_hint = limit_hint

    # ------------------------------------------------------------------
    def run(self) -> Result:
        select = self.select
        rows = list(self._candidate_rows())
        rows = [
            scope
            for scope in rows
            if select.where is None
            or is_truthy(self.evaluator.eval(select.where, scope))
        ]
        has_aggregates = bool(select.group_by) or any(
            _contains_aggregate(item.expression) for item in select.items
        ) or _contains_aggregate(select.having)
        if has_aggregates:
            result = self._aggregate_rows(rows)
        else:
            result = self._plain_rows(rows)
        if select.distinct:
            seen = set()
            unique = []
            for row in result.rows:
                key = tuple(row)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            result.rows = unique
        self._order_and_limit(result)
        return result

    # ------------------------------------------------------------------
    def _candidate_rows(self) -> Iterator[Scope]:
        select = self.select
        if select.table is None:
            yield Scope({}, parent=self.outer_scope)
            return
        table = self.database.table(select.table.name)
        binding = select.table.binding
        bound = _equality_bindings(
            select.where, binding, self.evaluator, self.outer_scope
        )
        index = table.best_index(set(bound)) if bound else None
        if index is not None:
            key = tuple(bound[column] for column in index.columns)
            candidates = table.lookup_index(index, key)
        else:
            candidates = table.scan()
        scopes: Iterator[Scope] = (
            Scope({binding: row}, parent=self.outer_scope)
            for _, row in candidates
        )
        for join in select.joins:
            scopes = self._apply_join(list(scopes), join)
        yield from scopes

    def _apply_join(
        self, scopes: list[Scope], join: ast.Join
    ) -> Iterator[Scope]:
        """Nested-loop join (hash-accelerated for simple equi-conditions)."""
        table = self.database.table(join.table.name)
        binding = join.table.binding
        if scopes and binding in scopes[0].bindings:
            raise QueryError(f"duplicate table binding {binding!r}")
        rows = [row for _, row in table.scan()]
        hash_plan = self._equi_join_plan(join, binding)
        buckets: Optional[dict] = None
        if hash_plan is not None:
            right_column, _ = hash_plan
            buckets = {}
            for row in rows:
                buckets.setdefault(row[right_column], []).append(row)
        null_row = {column: None for column in table.column_names}
        for scope in scopes:
            if buckets is not None:
                _, left_expr = hash_plan
                key = self.evaluator.eval(left_expr, scope)
                matches = buckets.get(key, []) if key is not None else []
            else:
                matches = []
                for row in rows:
                    candidate = self._merge(scope, binding, row)
                    if join.condition is None or is_truthy(
                        self.evaluator.eval(join.condition, candidate)
                    ):
                        matches.append(row)
            if matches:
                for row in matches:
                    yield self._merge(scope, binding, row)
            elif join.kind == "LEFT":
                yield self._merge(scope, binding, dict(null_row))

    def _merge(self, scope: Scope, binding: str, row: dict) -> Scope:
        bindings = dict(scope.bindings)
        bindings[binding] = row
        return Scope(bindings, parent=self.outer_scope)

    def _equi_join_plan(
        self, join: ast.Join, binding: str
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

    # ------------------------------------------------------------------
    def _output_columns(self) -> list[str]:
        names: list[str] = []
        for index, item in enumerate(self.select.items):
            if item.expression is None:
                if item.table_star is not None:
                    names.extend(
                        self.database.table(
                            self._table_name_of(item.table_star)
                        ).column_names
                    )
                else:
                    for ref in self._from_tables():
                        names.extend(
                            self.database.table(ref.name).column_names
                        )
            elif item.alias:
                names.append(item.alias)
            elif isinstance(item.expression, ast.ColumnRef):
                names.append(item.expression.name)
            else:
                names.append(f"col{index}")
        return names

    def _from_tables(self) -> list[ast.TableRef]:
        if self.select.table is None:
            raise QueryError("SELECT * requires a FROM clause")
        return [self.select.table] + [
            join.table for join in self.select.joins
        ]

    def _table_name_of(self, binding: str) -> str:
        for ref in self._from_tables():
            if ref.binding == binding:
                return ref.name
        raise QueryError(f"unknown table {binding!r} in star")

    def _project(self, scope: Scope) -> tuple:
        values: list[Any] = []
        for item in self.select.items:
            if item.expression is None:
                if item.table_star is not None:
                    bindings = [item.table_star]
                else:
                    bindings = [ref.binding for ref in self._from_tables()]
                for binding in bindings:
                    row = scope.bindings.get(binding)
                    if row is None:
                        raise QueryError(
                            f"unknown table {binding!r} in star"
                        )
                    values.extend(row.values())
            else:
                values.append(self.evaluator.eval(item.expression, scope))
        return tuple(values)

    def _plain_rows(self, scopes: list[Scope]) -> Result:
        result = Result(columns=self._output_columns())
        limit = self.limit_hint
        for scope in scopes:
            result.rows.append(self._project(scope))
            if limit is not None and len(result.rows) >= limit:
                break
        return result

    # ------------------------------------------------------------------
    def _aggregate_rows(self, scopes: list[Scope]) -> Result:
        select = self.select
        aggregates: list[ast.FunctionCall] = []
        for item in select.items:
            _collect_aggregates(item.expression, aggregates)
        _collect_aggregates(select.having, aggregates)
        for order in select.order_by:
            _collect_aggregates(order.expression, aggregates)

        groups: dict[tuple, list[Scope]] = {}
        if select.group_by:
            for scope in scopes:
                key = tuple(
                    self.evaluator.eval(expr, scope)
                    for expr in select.group_by
                )
                groups.setdefault(key, []).append(scope)
        else:
            groups[()] = scopes

        result = Result(columns=self._output_columns())
        for key, members in groups.items():
            agg_values: dict[ast.Expression, Any] = {}
            for node in aggregates:
                if node.star:
                    values: list[Any] = [1] * len(members)
                else:
                    values = [
                        self.evaluator.eval(node.args[0], member)
                        for member in members
                    ]
                agg_values[node] = aggregate(
                    node.name, values, node.star, node.distinct
                )
            representative = (
                members[0]
                if members
                else Scope({}, parent=self.outer_scope)
            )
            group_scope = Scope(
                representative.bindings,
                parent=representative.parent,
                aggregates=agg_values,
            )
            if select.having is not None and not is_truthy(
                self.evaluator.eval(select.having, group_scope)
            ):
                continue
            if not members and select.group_by:
                continue
            result.rows.append(self._project(group_scope))
        return result

    # ------------------------------------------------------------------
    def _order_and_limit(self, result: Result) -> None:
        select = self.select
        if select.order_by:
            alias_positions = {
                name: index for index, name in enumerate(result.columns)
            }

            def sort_key(row: tuple):
                keys = []
                for order in select.order_by:
                    value = self._order_value(order, row, alias_positions)
                    if order.ascending:
                        keys.append((value is None, value))
                    else:
                        keys.append((value is None, _Reverse(value)))
                return keys

            result.rows.sort(key=sort_key)
        if select.offset is not None:
            offset = int(self._constant(select.offset))
            result.rows = result.rows[offset:]
        if select.limit is not None:
            limit = int(self._constant(select.limit))
            result.rows = result.rows[:limit]

    def _order_value(self, order, row: tuple, alias_positions) -> Any:
        expr = order.expression
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value - 1
            if 0 <= position < len(row):
                return row[position]
            raise QueryError(f"ORDER BY position {expr.value} out of range")
        if isinstance(expr, ast.ColumnRef):
            # Qualified or not: ORDER BY targets an output column, whose
            # name is the bare column name (or its alias).
            position = alias_positions.get(expr.name)
            if position is not None:
                return row[position]
        raise QueryError(
            "ORDER BY supports output columns and positions "
            f"(got {expr!r})"
        )

    def _constant(self, expr: ast.Expression) -> Any:
        return self.evaluator.eval(expr, Scope({}))


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


class TreeWalkDatabase(Database):
    """Executes statements by walking the AST, over *database*'s tables."""

    def __init__(self, database: Database):
        super().__init__(database.name)
        self.tables = database.tables

    def execute(
        self, sql: str, params: Optional[dict[str, Any]] = None
    ) -> Result:
        return self.execute_statement(parse(sql), params or {})

    def execute_statement(
        self, statement: ast.Statement, params: dict[str, Any]
    ) -> Result:
        self.statements_executed += 1
        if isinstance(statement, ast.Select):
            return self._execute_select(statement, params, None)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement, params)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement, params)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement, params)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.DropTable):
            self.drop_table(statement.name, statement.if_exists)
            return Result()
        if isinstance(statement, ast.CreateIndex):
            self.table(statement.table).create_index(
                statement.name, statement.columns
            )
            return Result()
        raise QueryError(f"unsupported statement {type(statement).__name__}")

    # ------------------------------------------------------------------
    def _execute_select(
        self,
        select: ast.Select,
        params: dict[str, Any],
        outer_scope: Optional[Scope],
        limit_hint: Optional[int] = None,
    ) -> Result:
        executor = SelectExecutor(
            self, select, params, outer_scope, limit_hint
        )
        return executor.run()

    def _execute_insert(
        self, statement: ast.Insert, params: dict[str, Any]
    ) -> Result:
        table = self.table(statement.table)
        evaluator = Evaluator(self, params)
        columns = statement.columns or tuple(table.column_names)
        if len(columns) != len(set(columns)):
            raise QueryError("duplicate column in INSERT list")
        count = 0
        for row_exprs in statement.rows:
            if len(row_exprs) != len(columns):
                raise QueryError(
                    f"INSERT expects {len(columns)} values, got "
                    f"{len(row_exprs)}"
                )
            values = {
                column: evaluator.eval(expr, Scope({}))
                for column, expr in zip(columns, row_exprs)
            }
            table.insert(values, or_replace=statement.or_replace)
            count += 1
        return Result(rowcount=count)

    def _execute_update(
        self, statement: ast.Update, params: dict[str, Any]
    ) -> Result:
        table = self.table(statement.table)
        evaluator = Evaluator(self, params)
        touched: list[tuple[int, dict[str, Any]]] = []
        for rowid, row in table.scan():
            scope = Scope({statement.table: row})
            if statement.where is None or is_truthy(
                evaluator.eval(statement.where, scope)
            ):
                changes = {
                    assign.column: evaluator.eval(assign.value, scope)
                    for assign in statement.assignments
                }
                touched.append((rowid, changes))
        for rowid, changes in touched:
            table.update_row(rowid, changes)
        return Result(rowcount=len(touched))

    def _execute_delete(
        self, statement: ast.Delete, params: dict[str, Any]
    ) -> Result:
        table = self.table(statement.table)
        evaluator = Evaluator(self, params)
        doomed = [
            rowid
            for rowid, row in table.scan()
            if statement.where is None
            or is_truthy(
                evaluator.eval(statement.where, Scope({statement.table: row}))
            )
        ]
        return Result(rowcount=table.delete_rowids(doomed))

    def _execute_create_table(self, statement: ast.CreateTable) -> Result:
        columns = [
            Column(col.name, col.type_name, col.not_null)
            for col in statement.columns
        ]
        self.create_table(
            statement.name,
            columns,
            statement.primary_key,
            statement.if_not_exists,
        )
        return Result()

"""Expression compilation with SQL-style three-valued logic.

:class:`ExpressionCompiler` turns an AST expression node into a Python
closure once, when its statement is prepared.  A closure takes the
execution *frame* — a list whose slot 0 is the call's parameter dict and
whose other slots hold the current row of each table binding (or the
current group's aggregate values) — and returns the SQL value, ``None``
being NULL.  SQL's truth test (NULL filters the row out) is then plain
Python truthiness of that value.

Names are resolved at compile time against a :class:`Scope` chain, so a
correlated subquery reads its outer row straight from the shared frame.  A
reference that cannot be resolved compiles to a closure that raises: the
error surfaces only if the expression is actually evaluated.  Aggregate
function nodes are *not* computed here: the planner computes them per group
into the frame slot their scope names, keyed by the AST node (dataclass
equality makes syntactically identical aggregates share a position,
matching SQL semantics).
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Collection, Optional

from . import ast
from .errors import QueryError
from .functions import AGGREGATE_NAMES, call_scalar

Frame = list
Compiled = Callable[[Frame], Any]


class Scope:
    """One level of compile-time name resolution.

    ``tables`` maps a binding name to ``(frame slot, column names)``;
    ``aggregates`` maps the aggregate nodes visible at this level to their
    position in the list stored at ``aggregate_slot``.
    """

    def __init__(
        self,
        tables: dict[str, tuple[int, Collection[str]]],
        parent: Optional["Scope"] = None,
        aggregates: Optional[dict[ast.Expression, int]] = None,
        aggregate_slot: int = 0,
    ):
        self.tables = tables
        self.parent = parent
        self.aggregates = aggregates or {}
        self.aggregate_slot = aggregate_slot

    def resolve(self, ref: ast.ColumnRef) -> int:
        """The frame slot holding the row *ref* reads (innermost first)."""
        scope: Optional[Scope] = self
        while scope is not None:
            slot = scope._resolve_local(ref)
            if slot is not None:
                return slot
            scope = scope.parent
        raise QueryError(f"unknown column {ref}")

    def _resolve_local(self, ref: ast.ColumnRef) -> Optional[int]:
        if ref.table is not None:
            entry = self.tables.get(ref.table)
            if entry is None:
                return None
            if ref.name not in entry[1]:
                raise QueryError(
                    f"table {ref.table!r} has no column {ref.name!r}"
                )
            return entry[0]
        matches = [
            slot
            for slot, columns in self.tables.values()
            if ref.name in columns
        ]
        if len(matches) > 1:
            raise QueryError(f"ambiguous column {ref.name!r}")
        return matches[0] if matches else None


def raises(message: str) -> Compiled:
    """A closure that fails with *message* when (and only when) called."""

    def fail(frame: Frame) -> Any:
        raise QueryError(message)

    return fail


def _divide(left: Any, right: Any) -> Any:
    return None if right == 0 else left / right  # x / 0 is NULL, SQL-style


def _modulo(left: Any, right: Any) -> Any:
    return None if right == 0 else left % right


_BINARY_OPERATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": _modulo,
    "||": lambda left, right: f"{left}{right}",
}
_UNARY_OPERATORS = {"NOT": operator.not_, "-": operator.neg, "+": operator.pos}


def _membership(value: Any, candidates: list, negated: bool) -> Any:
    """``value [NOT] IN candidates``: a NULL candidate makes a miss NULL."""
    found = value in [c for c in candidates if c is not None]
    if not found and any(c is None for c in candidates):
        return None
    return found is not negated


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


class ExpressionCompiler:
    """Compiles expressions; the planner's ``Preparation`` supplies
    :meth:`select` to compile a nested SELECT under an enclosing scope."""

    def select(self, select: ast.Select, outer: Optional[Scope]) -> Any:
        """A plan with ``rows(frame, limit_hint=None) -> list[tuple]``."""
        raise NotImplementedError

    def compile(
        self, expr: Optional[ast.Expression], scope: Scope
    ) -> Optional[Compiled]:
        """The closure of *expr* under *scope* (None for an absent one)."""
        if expr is None:
            return None
        return _COMPILERS[type(expr)](self, expr, scope)

    def _literal(self, expr: ast.Literal, scope: Scope) -> Compiled:
        value = expr.value
        return lambda frame: value

    def _column(self, expr: ast.ColumnRef, scope: Scope) -> Compiled:
        try:
            slot = scope.resolve(expr)
        except QueryError as exc:
            return raises(str(exc))
        name = expr.name
        return lambda frame: frame[slot][name]

    def _param(self, expr: ast.Param, scope: Scope) -> Compiled:
        name = expr.name

        def param(frame: Frame) -> Any:
            try:
                return frame[0][name]
            except KeyError:
                raise QueryError(f"missing parameter ${name}") from None

        return param

    def _unary(self, expr: ast.Unary, scope: Scope) -> Compiled:
        operand = self.compile(expr.operand, scope)
        apply = _UNARY_OPERATORS[expr.op]

        def unary(frame: Frame) -> Any:
            value = operand(frame)
            return None if value is None else apply(value)

        return unary

    def _binary(self, expr: ast.Binary, scope: Scope) -> Compiled:
        op = expr.op
        left = self.compile(expr.left, scope)
        right = self.compile(expr.right, scope)
        if op == "AND":

            def conjunction(frame: Frame) -> Any:
                first = left(frame)
                if first is not None and not first:
                    return False  # decided: the right side is not evaluated
                second = right(frame)
                if second is not None and not second:
                    return False
                return None if first is None or second is None else True

            return conjunction
        if op == "OR":

            def disjunction(frame: Frame) -> Any:
                first = left(frame)
                if first:
                    return True
                second = right(frame)
                if second:
                    return True
                return None if first is None or second is None else False

            return disjunction
        apply = _BINARY_OPERATORS[op]

        def binary(frame: Frame) -> Any:
            first = left(frame)
            second = right(frame)  # evaluated (and may raise) even for NULL
            if first is None or second is None:
                return None
            return apply(first, second)

        return binary

    def _between(self, expr: ast.Between, scope: Scope) -> Compiled:
        operand = self.compile(expr.operand, scope)
        low = self.compile(expr.low, scope)
        high = self.compile(expr.high, scope)
        negated = expr.negated

        def between(frame: Frame) -> Any:
            value, lower, upper = operand(frame), low(frame), high(frame)
            if value is None or lower is None or upper is None:
                return None
            return (lower <= value <= upper) is not negated

        return between

    def _is_null(self, expr: ast.IsNull, scope: Scope) -> Compiled:
        operand = self.compile(expr.operand, scope)
        negated = expr.negated
        return lambda frame: (operand(frame) is None) is not negated

    def _like(self, expr: ast.Like, scope: Scope) -> Compiled:
        operand = self.compile(expr.operand, scope)
        pattern = self.compile(expr.pattern, scope)
        negated = expr.negated

        def like(frame: Frame) -> Any:
            value, wildcard = operand(frame), pattern(frame)
            if value is None or wildcard is None:
                return None
            matched = _like_to_regex(str(wildcard)).fullmatch(str(value))
            return (matched is not None) is not negated

        return like

    def _function(self, expr: ast.FunctionCall, scope: Scope) -> Compiled:
        name = expr.name
        if name in AGGREGATE_NAMES:
            search: Optional[Scope] = scope
            while search is not None:
                position = search.aggregates.get(expr)
                if position is not None:
                    slot = search.aggregate_slot
                    return lambda frame: frame[slot][position]
                search = search.parent
            return raises(f"aggregate {name} used outside an aggregate query")
        args = [self.compile(arg, scope) for arg in expr.args]
        return lambda frame: call_scalar(name, [arg(frame) for arg in args])

    def _case(self, expr: ast.Case, scope: Scope) -> Compiled:
        whens = [
            (self.compile(condition, scope), self.compile(result, scope))
            for condition, result in expr.whens
        ]
        otherwise = self.compile(expr.else_result, scope) or (
            lambda frame: None
        )
        if expr.operand is None:

            def searched_case(frame: Frame) -> Any:
                for condition, result in whens:
                    if condition(frame):
                        return result(frame)
                return otherwise(frame)

            return searched_case
        operand = self.compile(expr.operand, scope)

        def simple_case(frame: Frame) -> Any:
            # ``operand = when`` under 3-valued logic: NULL matches nothing.
            subject = operand(frame)
            for condition, result in whens:
                candidate = condition(frame)
                if (
                    subject is not None
                    and candidate is not None
                    and candidate == subject
                ):
                    return result(frame)
            return otherwise(frame)

        return simple_case

    def _scalar_subquery(
        self, expr: ast.ScalarSubquery, scope: Scope
    ) -> Compiled:
        plan = self.select(expr.select, scope)

        def scalar(frame: Frame) -> Any:
            rows = plan.rows(frame)
            if not rows:
                return None
            if len(rows) > 1:
                raise QueryError("scalar subquery returned more than one row")
            if len(rows[0]) != 1:
                raise QueryError("scalar subquery must select a single column")
            return rows[0][0]

        return scalar

    def _exists_subquery(
        self, expr: ast.ExistsSubquery, scope: Scope
    ) -> Compiled:
        plan = self.select(expr.select, scope)
        negated = expr.negated
        return lambda frame: bool(plan.rows(frame, 1)) is not negated

    def _in_list(self, expr: ast.InList, scope: Scope) -> Compiled:
        operand = self.compile(expr.operand, scope)
        items = [self.compile(item, scope) for item in expr.items]
        negated = expr.negated

        def in_list(frame: Frame) -> Any:
            value = operand(frame)
            if value is None:
                return None
            return _membership(value, [item(frame) for item in items], negated)

        return in_list

    def _in_subquery(self, expr: ast.InSubquery, scope: Scope) -> Compiled:
        operand = self.compile(expr.operand, scope)
        plan = self.select(expr.select, scope)
        negated = expr.negated

        def in_subquery(frame: Frame) -> Any:
            value = operand(frame)
            if value is None:
                return None
            return _membership(
                value, [row[0] for row in plan.rows(frame)], negated
            )

        return in_subquery


_COMPILERS: dict[type, Callable[..., Compiled]] = {
    ast.Literal: ExpressionCompiler._literal,
    ast.ColumnRef: ExpressionCompiler._column,
    ast.Param: ExpressionCompiler._param,
    ast.Unary: ExpressionCompiler._unary,
    ast.Binary: ExpressionCompiler._binary,
    ast.FunctionCall: ExpressionCompiler._function,
    ast.Case: ExpressionCompiler._case,
    ast.ScalarSubquery: ExpressionCompiler._scalar_subquery,
    ast.ExistsSubquery: ExpressionCompiler._exists_subquery,
    ast.InList: ExpressionCompiler._in_list,
    ast.InSubquery: ExpressionCompiler._in_subquery,
    ast.Between: ExpressionCompiler._between,
    ast.IsNull: ExpressionCompiler._is_null,
    ast.Like: ExpressionCompiler._like,
}

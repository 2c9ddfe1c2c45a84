"""Abstract syntax tree for the SQL subset.

Every node is a frozen dataclass; the expression compiler in
:mod:`repro.sqldb.expressions` and the statement preparers in
:mod:`repro.sqldb.planner` dispatch on these types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence


class Expression:
    """Marker base class for expression nodes."""


@dataclass(frozen=True)
class Literal(Expression):
    value: Any


@dataclass(frozen=True)
class ColumnRef(Expression):
    name: str
    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Param(Expression):
    name: str


@dataclass(frozen=True)
class Unary(Expression):
    op: str  # "NOT" | "-" | "+"
    operand: Expression


@dataclass(frozen=True)
class Binary(Expression):
    op: str  # arithmetic / comparison / AND / OR / "||"
    left: Expression
    right: Expression


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str  # upper-cased
    args: tuple[Expression, ...]
    star: bool = False  # COUNT(*)
    distinct: bool = False


@dataclass(frozen=True)
class Case(Expression):
    whens: tuple[tuple[Expression, Expression], ...]
    else_result: Optional[Expression]
    operand: Optional[Expression] = None  # CASE <operand> WHEN ... form


@dataclass(frozen=True)
class ScalarSubquery(Expression):
    select: "Select"


@dataclass(frozen=True)
class ExistsSubquery(Expression):
    select: "Select"
    negated: bool = False


@dataclass(frozen=True)
class InList(Expression):
    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expression):
    operand: Expression
    select: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False


@dataclass(frozen=True)
class Like(Expression):
    operand: Expression
    pattern: Expression
    negated: bool = False


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
class Statement:
    """Marker base class for statement nodes."""


@dataclass(frozen=True)
class SelectItem:
    expression: Optional[Expression]  # None means bare "*"
    alias: Optional[str] = None
    table_star: Optional[str] = None  # "t.*"


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    """One join step: ``<kind> JOIN table [ON condition]``."""

    table: TableRef
    condition: Optional[Expression] = None
    kind: str = "INNER"  # INNER | LEFT | CROSS


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    ascending: bool = True


@dataclass(frozen=True)
class Select(Statement):
    items: tuple[SelectItem, ...]
    table: Optional[TableRef]
    joins: tuple["Join", ...] = ()
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None
    distinct: bool = False


@dataclass(frozen=True)
class Insert(Statement):
    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expression, ...], ...]
    or_replace: bool = False


@dataclass(frozen=True)
class Assignment:
    column: str
    value: Expression


@dataclass(frozen=True)
class Update(Statement):
    table: str
    assignments: tuple[Assignment, ...]
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Delete(Statement):
    table: str
    where: Optional[Expression] = None


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str  # normalized: INTEGER | FLOAT | TEXT | BOOLEAN
    not_null: bool = False


@dataclass(frozen=True)
class CreateTable(Statement):
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...] = ()
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class CreateIndex(Statement):
    name: str
    table: str
    columns: tuple[str, ...]

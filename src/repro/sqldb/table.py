"""Storage: tables, schemas, and hash indexes.

Rows live as plain dicts keyed by column name inside an insertion-ordered
``rowid -> row`` map.  A table may declare a primary key (upserts via
``INSERT OR REPLACE`` need one) and any number of secondary hash indexes;
indexes are maintained incrementally on every mutation and used by the
planner for equality lookups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import AbstractSet, Any, Iterable, Iterator, Optional

from .errors import ConstraintError, SchemaError

_NO_ROWIDS: AbstractSet[int] = frozenset()

_COERCERS = {
    "INTEGER": int,
    "FLOAT": float,
    "TEXT": str,
    "BOOLEAN": bool,
}


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    type_name: str  # INTEGER | FLOAT | TEXT | BOOLEAN
    not_null: bool = False

    def coerce(self, value: Any) -> Any:
        if value is None:
            if self.not_null:
                raise ConstraintError(
                    f"column {self.name!r} is NOT NULL"
                )
            return None
        coercer = _COERCERS.get(self.type_name)
        if coercer is None:
            raise SchemaError(f"unknown column type {self.type_name!r}")
        try:
            if self.type_name == "BOOLEAN" and isinstance(value, str):
                return value.strip().lower() in ("1", "true", "t", "yes")
            return coercer(value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"cannot store {value!r} in {self.type_name} column "
                f"{self.name!r}"
            ) from exc


class HashIndex:
    """Equality index: column-value tuple -> set of rowids."""

    def __init__(self, name: str, columns: tuple[str, ...]):
        self.name = name
        self.columns = columns
        self._buckets: dict[tuple, set[int]] = {}

    def key_of(self, row: dict[str, Any]) -> tuple:
        return tuple(row[column] for column in self.columns)

    def add(self, rowid: int, row: dict[str, Any]) -> None:
        self._buckets.setdefault(self.key_of(row), set()).add(rowid)

    def remove(self, rowid: int, row: dict[str, Any]) -> None:
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.discard(rowid)
            if not bucket:
                del self._buckets[key]

    def lookup(self, key: tuple) -> AbstractSet[int]:
        return self._buckets.get(key, _NO_ROWIDS)

    def clear(self) -> None:
        self._buckets.clear()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class Table:
    """An in-memory heap of rows plus its indexes."""

    def __init__(
        self,
        name: str,
        columns: Iterable[Column],
        primary_key: tuple[str, ...] = (),
    ):
        self.name = name
        self.columns: dict[str, Column] = {}
        for column in columns:
            if column.name in self.columns:
                raise SchemaError(
                    f"duplicate column {column.name!r} in table {name!r}"
                )
            self.columns[column.name] = column
        for key_column in primary_key:
            if key_column not in self.columns:
                raise SchemaError(
                    f"primary key column {key_column!r} not in table {name!r}"
                )
        self.primary_key = primary_key
        self._rows: dict[int, dict[str, Any]] = {}
        self._rowids = itertools.count(1)
        self._pk_index: Optional[HashIndex] = (
            HashIndex(f"pk_{name}", primary_key) if primary_key else None
        )
        self.indexes: dict[str, HashIndex] = {}
        #: Bumped when the set of indexes changes; a prepared plan records
        #: the value it chose its access path under.
        self.schema_version = 0

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    @property
    def column_names(self) -> list[str]:
        return list(self.columns.keys())

    def has_column(self, name: str) -> bool:
        return name in self.columns

    def create_index(self, name: str, columns: tuple[str, ...]) -> HashIndex:
        for column in columns:
            if column not in self.columns:
                raise SchemaError(
                    f"cannot index unknown column {column!r} of {self.name!r}"
                )
        if name in self.indexes:
            raise SchemaError(f"index {name!r} already exists")
        index = HashIndex(name, columns)
        for rowid, row in self._rows.items():
            index.add(rowid, row)
        self.indexes[name] = index
        self.schema_version += 1
        return index

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def scan(
        self, snapshot: bool = False
    ) -> Iterator[tuple[int, dict[str, Any]]]:
        """All (rowid, row) pairs in insertion order.

        A live view of the heap by default; a caller that inserts or
        deletes while iterating (UPDATE/DELETE) asks for a *snapshot*.
        """
        items = self._rows.items()
        return iter(list(items) if snapshot else items)

    def rows(self) -> list[dict[str, Any]]:
        return [dict(row) for row in self._rows.values()]

    def get(self, rowid: int) -> Optional[dict[str, Any]]:
        return self._rows.get(rowid)

    def lookup_pk(self, key: tuple) -> Optional[dict[str, Any]]:
        if self._pk_index is None:
            raise SchemaError(f"table {self.name!r} has no primary key")
        rowids = self._pk_index.lookup(key)
        for rowid in rowids:
            return self._rows[rowid]
        return None

    def best_index(self, bound_columns: set[str]) -> Optional[HashIndex]:
        """The most selective index fully covered by *bound_columns*."""
        candidates = []
        if self._pk_index is not None and set(
            self._pk_index.columns
        ) <= bound_columns:
            candidates.append(self._pk_index)
        for index in self.indexes.values():
            if set(index.columns) <= bound_columns:
                candidates.append(index)
        if not candidates:
            return None
        return max(candidates, key=lambda index: len(index.columns))

    def lookup_index(
        self, index: HashIndex, key: tuple
    ) -> list[tuple[int, dict[str, Any]]]:
        """The live (rowid, row) pairs under *key*, in insertion order."""
        rowids = index.lookup(key)
        if not rowids:
            return []
        rows = self._rows
        return [
            (rowid, rows[rowid]) for rowid in sorted(rowids) if rowid in rows
        ]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _coerced(self, values: dict[str, Any]) -> dict[str, Any]:
        row: dict[str, Any] = {}
        for name, column in self.columns.items():
            row[name] = column.coerce(values.get(name))
        unknown = set(values) - set(self.columns)
        if unknown:
            raise SchemaError(
                f"unknown column(s) {sorted(unknown)} for table {self.name!r}"
            )
        return row

    def insert(
        self, values: dict[str, Any], or_replace: bool = False
    ) -> int:
        """Insert a row; with *or_replace*, overwrite the PK conflict."""
        row = self._coerced(values)
        if self._pk_index is not None:
            key = tuple(row[column] for column in self.primary_key)
            if any(part is None for part in key):
                raise ConstraintError(
                    f"primary key of {self.name!r} cannot contain NULL"
                )
            existing = self._pk_index.lookup(key)
            if existing:
                if not or_replace:
                    raise ConstraintError(
                        f"duplicate primary key {key!r} in {self.name!r}"
                    )
                for rowid in list(existing):
                    self._delete_rowid(rowid)
        rowid = next(self._rowids)
        self._rows[rowid] = row
        if self._pk_index is not None:
            self._pk_index.add(rowid, row)
        for index in self.indexes.values():
            index.add(rowid, row)
        return rowid

    def _delete_rowid(self, rowid: int) -> None:
        row = self._rows.pop(rowid)
        if self._pk_index is not None:
            self._pk_index.remove(rowid, row)
        for index in self.indexes.values():
            index.remove(rowid, row)

    def delete_rowids(self, rowids: Iterable[int]) -> int:
        count = 0
        for rowid in list(rowids):
            if rowid in self._rows:
                self._delete_rowid(rowid)
                count += 1
        return count

    def update_row(self, rowid: int, changes: dict[str, Any]) -> None:
        old = self._rows[rowid]
        new = dict(old)
        for name, value in changes.items():
            column = self.columns.get(name)
            if column is None:
                raise SchemaError(
                    f"unknown column {name!r} in UPDATE of {self.name!r}"
                )
            new[name] = column.coerce(value)
        if self._pk_index is not None:
            new_key = tuple(new[c] for c in self.primary_key)
            old_key = tuple(old[c] for c in self.primary_key)
            if new_key != old_key:
                conflict = self._pk_index.lookup(new_key)
                if conflict and conflict != {rowid}:
                    raise ConstraintError(
                        f"UPDATE would duplicate primary key {new_key!r}"
                    )
            self._pk_index.remove(rowid, old)
        for index in self.indexes.values():
            index.remove(rowid, old)
        self._rows[rowid] = new
        if self._pk_index is not None:
            self._pk_index.add(rowid, new)
        for index in self.indexes.values():
            index.add(rowid, new)

    def _all_indexes(self) -> list[HashIndex]:
        indexes = list(self.indexes.values())
        if self._pk_index is not None:
            indexes.append(self._pk_index)
        return indexes

    def clear(self) -> None:
        self._rows.clear()
        # Emptied in place: prepared plans hold the index objects.
        for index in self._all_indexes():
            index.clear()

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot rows + rowid counter (Checkpointable protocol).

        Indexes are derived data and are rebuilt on restore rather than
        serialized.  The row dicts are referenced live (not copied): the
        checkpoint orchestrator pickles the aggregate dump synchronously,
        and referencing the same row objects lets pickle's memo
        de-duplicate a database that several actors dump independently.
        """
        return {
            "rows": self._rows,
            "next_rowid": self._rowids.__reduce__()[1][0],
        }

    def state_restore(self, state: dict) -> None:
        """Re-apply dumped rows in place and rebuild every index."""
        self._rows = dict(state["rows"])
        self._rowids = itertools.count(int(state["next_rowid"]))
        indexes = self._all_indexes()
        for index in indexes:
            index.clear()
        for rowid, row in self._rows.items():
            for index in indexes:
                index.add(rowid, row)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={len(self._rows)})"

"""Scalar and aggregate function registry of the SQL engine."""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Optional

from .errors import QueryError

AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


def _null_guard(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Scalar functions return NULL when any argument is NULL."""

    def wrapped(*args: Any) -> Any:
        for arg in args:  # a plain loop: no generator per scalar call
            if arg is None:
                return None
        return fn(*args)

    return wrapped


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "POWER": _null_guard(lambda x, y: float(x) ** float(y)),
    "POW": _null_guard(lambda x, y: float(x) ** float(y)),
    "ABS": _null_guard(abs),
    "ROUND": _null_guard(
        lambda x, digits=0: round(float(x), int(digits))
    ),
    "FLOOR": _null_guard(lambda x: math.floor(float(x))),
    "CEIL": _null_guard(lambda x: math.ceil(float(x))),
    "CEILING": _null_guard(lambda x: math.ceil(float(x))),
    "SQRT": _null_guard(lambda x: math.sqrt(float(x))),
    "MOD": _null_guard(lambda x, y: x % y),
    "UPPER": _null_guard(lambda s: str(s).upper()),
    "LOWER": _null_guard(lambda s: str(s).lower()),
    "LENGTH": _null_guard(lambda s: len(str(s))),
    "MIN2": _null_guard(min),
    "MAX2": _null_guard(max),
}


def call_scalar(name: str, args: list[Any]) -> Any:
    """Invoke a scalar function by (upper-cased) name on evaluated args."""
    fn = SCALAR_FUNCTIONS.get(name)
    if fn is None:
        if name == "COALESCE":
            for arg in args:
                if arg is not None:
                    return arg
            return None
        if name in ("IFNULL", "NVL"):
            if len(args) != 2:
                raise QueryError(f"{name} takes two arguments")
            return args[0] if args[0] is not None else args[1]
        raise QueryError(f"unknown function {name}")
    try:
        return fn(*args)
    except TypeError as exc:
        raise QueryError(f"bad arguments to {name}: {exc}") from exc


def aggregate(
    name: str, values: Iterable[Any], star: bool, distinct: bool
) -> Any:
    """Compute one aggregate over the evaluated per-row values.

    ``COUNT(*)`` counts rows (``values`` are row markers); other aggregates
    skip NULLs per SQL semantics; ``SUM``/``AVG``/``MIN``/``MAX`` over an
    empty (or all-NULL) input yield NULL, ``COUNT`` yields 0.
    """
    if name == "COUNT":
        if star:
            return sum(1 for _ in values)
        seen = [value for value in values if value is not None]
        if distinct:
            return len(set(seen))
        return len(seen)
    kept = [value for value in values if value is not None]
    if distinct:
        kept = list(dict.fromkeys(kept))
    if not kept:
        return None
    if name == "SUM":
        return sum(kept)
    if name == "AVG":
        return sum(kept) / len(kept)
    if name == "MIN":
        return min(kept)
    if name == "MAX":
        return max(kept)
    raise QueryError(f"unknown aggregate {name}")

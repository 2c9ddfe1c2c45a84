"""Property-based tests: the SQL engine against a naive Python oracle."""

from hypothesis import given, settings, strategies as st

from repro.sqldb import Database

from .treewalk_sql import TreeWalkDatabase

row_strategy = st.tuples(
    st.integers(min_value=0, max_value=5),  # seg
    st.one_of(st.none(), st.integers(min_value=0, max_value=100)),  # speed
)
rows_strategy = st.lists(row_strategy, max_size=40)


def load(rows):
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, seg INTEGER, speed INTEGER)")
    for index, (seg, speed) in enumerate(rows):
        db.execute(
            "INSERT INTO t VALUES ($id, $seg, $speed)",
            {"id": index, "seg": seg, "speed": speed},
        )
    return db


class TestSelectOracle:
    @given(rows_strategy, st.integers(min_value=0, max_value=5))
    @settings(max_examples=60)
    def test_where_equality_matches_filter(self, rows, target):
        db = load(rows)
        got = sorted(
            r[0] for r in db.execute(
                "SELECT id FROM t WHERE seg = $s", {"s": target}
            )
        )
        expected = sorted(
            i for i, (seg, _) in enumerate(rows) if seg == target
        )
        assert got == expected

    @given(rows_strategy, st.integers(min_value=0, max_value=100))
    @settings(max_examples=60)
    def test_null_semantics_in_comparisons(self, rows, threshold):
        db = load(rows)
        got = sorted(
            r[0] for r in db.execute(
                "SELECT id FROM t WHERE speed > $x", {"x": threshold}
            )
        )
        expected = sorted(
            i
            for i, (_, speed) in enumerate(rows)
            if speed is not None and speed > threshold
        )
        assert got == expected

    @given(rows_strategy)
    @settings(max_examples=60)
    def test_group_by_count_matches_counter(self, rows):
        from collections import Counter

        db = load(rows)
        got = dict(
            db.execute("SELECT seg, COUNT(*) FROM t GROUP BY seg").rows
        )
        assert got == dict(Counter(seg for seg, _ in rows))

    @given(rows_strategy)
    @settings(max_examples=60)
    def test_aggregates_skip_nulls(self, rows):
        db = load(rows)
        speeds = [s for _, s in rows if s is not None]
        row = db.execute(
            "SELECT COUNT(speed), SUM(speed), MIN(speed), MAX(speed) FROM t"
        ).rows[0]
        assert row[0] == len(speeds)
        assert row[1] == (sum(speeds) if speeds else None)
        assert row[2] == (min(speeds) if speeds else None)
        assert row[3] == (max(speeds) if speeds else None)

    @given(rows_strategy)
    @settings(max_examples=40)
    def test_order_by_is_sorted_with_nulls_last(self, rows):
        db = load(rows)
        got = [r[0] for r in db.execute("SELECT speed FROM t ORDER BY speed")]
        non_null = [v for v in got if v is not None]
        assert non_null == sorted(non_null)
        first_null = next(
            (i for i, v in enumerate(got) if v is None), len(got)
        )
        assert all(v is None for v in got[first_null:])

    @given(rows_strategy)
    @settings(max_examples=40)
    def test_index_and_scan_agree(self, rows):
        plain = load(rows)
        indexed = load(rows)
        indexed.execute("CREATE INDEX by_seg ON t (seg)")
        for target in range(6):
            a = sorted(
                plain.execute(
                    "SELECT id FROM t WHERE seg = $s", {"s": target}
                ).rows
            )
            b = sorted(
                indexed.execute(
                    "SELECT id FROM t WHERE seg = $s", {"s": target}
                ).rows
            )
            assert a == b

    @given(rows_strategy, st.integers(min_value=0, max_value=5))
    @settings(max_examples=40)
    def test_delete_then_count_consistent(self, rows, target):
        db = load(rows)
        deleted = db.execute(
            "DELETE FROM t WHERE seg = $s", {"s": target}
        ).rowcount
        remaining = db.execute("SELECT COUNT(*) FROM t").scalar()
        assert deleted + remaining == len(rows)


# ----------------------------------------------------------------------
# Differential: compiled plans vs the tree-walk oracle
# ----------------------------------------------------------------------
# Statements are generated as text, fully parenthesized, over two tables
# that share a column name (``a``) so that bare references can be
# ambiguous in a join and shadowed in a subquery.  Column references are
# drawn without regard to what is in scope, parameters may be missing and
# types are mixed on purpose: wherever the oracle raises (unknown or
# ambiguous column, missing parameter, multi-row scalar subquery, a Python
# TypeError from comparing 1 with 'a') the compiled plan must raise the
# same error with the same message, and only if the oracle evaluates the
# offending expression at all.
_VALUES = st.sampled_from([0, 1, 2, None])
_T_ROWS = st.lists(
    st.tuples(_VALUES, st.sampled_from([0.0, 1.0, 1.5, None]),
              st.sampled_from(["a", "b", "ab", None])),
    min_size=2, max_size=6,
)
_T_ROWS = st.tuples(_T_ROWS, st.integers(0, 7)).map(
    lambda drawn: [] if drawn[1] == 7 else drawn[0]  # now and then empty
)
_U_ROWS = st.lists(
    st.tuples(_VALUES, _VALUES, st.sampled_from(["a", "b", None])),
    min_size=1, max_size=5,
)
_U_ROWS = st.tuples(_U_ROWS, st.integers(0, 7)).map(
    lambda drawn: [] if drawn[1] == 7 else drawn[0]
)
_INDEXES = st.sets(
    st.sampled_from([
        "CREATE INDEX t_a ON t (a)",
        "CREATE INDEX t_ab ON t (a, b)",
        "CREATE INDEX u_a ON u (a)",
        "CREATE INDEX u_ax ON u (a, x)",
    ])
)
_PARAM_VALUES = {
    "p": st.sampled_from([0, 1, 2, 1.0, None]),
    "q": st.sampled_from([0, 1, 2]),
    "s": st.sampled_from(["a", "b", "%b", "_"]),
}
_PARAMS = st.one_of(
    st.fixed_dictionaries(_PARAM_VALUES),
    st.fixed_dictionaries(_PARAM_VALUES),
    st.fixed_dictionaries({}, optional=_PARAM_VALUES),
)
_LITERALS = ["0", "1", "2", "1.5", "'a'", "'b'", "'a%'", "NULL", "TRUE"]
_COLUMNS = ["a", "b", "c", "t.a", "t.b", "t.c"]
_LEAVES = st.sampled_from(
    _LITERALS * 2 + _COLUMNS * 5 + ["$p", "$q", "$s"] * 3
    + ["x", "d", "u.a", "u.x", "u.d", "zz", "t.zz", "$missing"]
)
_BINARY = ["=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "||",
           "AND", "OR", "AND", "="]
_SUBQUERY_TABLES = ["t", "u", "u AS t", "t AS s"]
_CASE_WHENS = ["0", "1", "1.0", "'a'"]


def _build_db(t_rows, u_rows, indexes):
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b FLOAT, c TEXT)")
    db.execute("CREATE TABLE u (a INTEGER, x INTEGER, d TEXT)")
    for statement in sorted(indexes):
        db.execute(statement)
    for row in t_rows:
        db.execute("INSERT INTO t VALUES ($a, $b, $c)",
                   dict(zip("abc", row)))
    for row in u_rows:
        db.execute("INSERT INTO u VALUES ($a, $x, $d)",
                   dict(zip("axd", row)))
    return db


def _outcome(database, sql, params):
    try:
        result = database.execute(sql, params)
    except Exception as exc:  # the error is the outcome being compared
        return ("error", type(exc).__name__, str(exc))
    return ("rows", result.columns, repr(result.rows))


def _assert_same(db, sql, params):
    expected = _outcome(TreeWalkDatabase(db), sql, params)
    assert _outcome(db, sql, params) == expected, sql
    # A second run goes through the cached plan.
    assert _outcome(db, sql, params) == expected, sql


@st.composite
def _subquery(draw, depth):
    """A nested SELECT (no enclosing parentheses) of one output column."""
    table = draw(st.sampled_from(_SUBQUERY_TABLES))
    item = draw(st.sampled_from(
        ["a", "x", "COUNT(*)", "MAX(x)", "SUM(a)", "1", "a, x", "MIN(b) + a"]
    ))
    where = draw(st.one_of(
        st.sampled_from([
            "u.a = a", "a = t.a", "u.a = t.a", "x = b", "t.a = a AND x = $q",
            "a = $p", "s.a = a",
        ]),
        _expression(depth),
    ))
    tail = draw(st.sampled_from(["", "", " LIMIT 1", " GROUP BY a"]))
    return f"SELECT {item} FROM {table} WHERE {where}{tail}"


@st.composite
def _expression(draw, depth=2):
    if depth <= 0 or draw(st.integers(0, 3)) == 0:
        return draw(_LEAVES)
    sub = _expression(depth - 1)
    kind = draw(st.integers(0, 11))
    if kind <= 2:
        return f"({draw(sub)} {draw(st.sampled_from(_BINARY))} {draw(sub)})"
    if kind == 3:
        return f"({draw(st.sampled_from(['NOT', '-', '+']))} {draw(sub)})"
    if kind == 4:
        whens = " ".join(
            f"WHEN {draw(sub)} THEN {draw(sub)}"
            for _ in range(draw(st.integers(1, 2)))
        )
        tail = f" ELSE {draw(sub)}" if draw(st.booleans()) else ""
        return f"CASE {whens}{tail} END"
    if kind == 5:
        # Simple CASE: WHEN values are non-NULL literals (see the oracle's
        # docstring: NULL = NULL is the one deliberate difference).
        whens = " ".join(
            f"WHEN {draw(st.sampled_from(_CASE_WHENS))} THEN {draw(sub)}"
            for _ in range(draw(st.integers(1, 2)))
        )
        tail = f" ELSE {draw(sub)}" if draw(st.booleans()) else ""
        return f"CASE {draw(sub)} {whens}{tail} END"
    negated = draw(st.sampled_from(["", "NOT "]))
    if kind == 6:
        return f"({draw(sub)} {negated}BETWEEN {draw(sub)} AND {draw(sub)})"
    if kind == 7:
        items = ", ".join(draw(st.lists(sub, min_size=1, max_size=3)))
        return f"({draw(sub)} {negated}IN ({items}))"
    if kind == 8:
        return f"({draw(sub)} {negated}LIKE {draw(sub)})"
    if kind == 9:
        return f"({draw(sub)} IS {negated}NULL)"
    if kind == 10:
        name, arity = draw(st.sampled_from(
            [("COALESCE", 2), ("ABS", 1), ("POWER", 2), ("UPPER", 1),
             ("IFNULL", 2), ("NOSUCH", 1), ("COUNT", 1), ("LENGTH", 1)]
        ))
        args = ", ".join(draw(sub) for _ in range(arity))
        return f"{name}({args})"
    nested = draw(_subquery(depth - 1))
    form = draw(st.integers(0, 2))
    if form == 0:
        return f"({nested})"
    if form == 1:
        return f"({negated}EXISTS ({nested}))"
    return f"({draw(sub)} {negated}IN ({nested}))"


_EQUALITIES = st.sampled_from(
    ["a = 1", "1 = a", "a = $p", "$q = a", "t.a = $q", "b = $p", "b = 1.0",
     "a = $missing"] * 3
    + ["a = 2", "a = -1", "a = - $q", "a = NULL", "u.a = 1",
       "x = $q", "c = $s", "a = b", "a >= 1", "b IS NOT NULL"]
)


@st.composite
def _where(draw):
    """Mostly index-shaped: AND-ed equalities, duplicated or conflicting on
    one column, on parameters that may be missing, before or after an
    arbitrary conjunct."""
    conjuncts = draw(st.lists(
        st.one_of(_EQUALITIES, _EQUALITIES, _expression(2)), max_size=3
    ))
    return f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""


@st.composite
def _select(draw):
    source = draw(st.sampled_from(
        ["t"] * 12 + [
            "u", "t AS s", "t JOIN u ON u.x = t.a", "t JOIN u ON t.a = u.x",
            "t LEFT JOIN u ON u.x = t.a", "t LEFT JOIN u ON u.x > t.a",
            "t INNER JOIN u ON t.b = u.x AND u.x = 1", "t, u", "t JOIN u",
            "t JOIN u ON u.x = t.a LEFT JOIN u AS v ON v.x = u.x",
            "t JOIN t ON t.a = 1",
        ]
    ))
    where = draw(_where())
    shape = draw(st.integers(0, 3))
    if shape == 0:  # grouped
        key = draw(st.sampled_from(["a", "t.a", "c", "a, c", "(a + 1)"]))
        items = f"{key.strip('()')}, " + draw(st.sampled_from([
            "COUNT(*)", "SUM(b)", "MIN(c) AS lo, MAX(b)", "COUNT(DISTINCT b)",
            "AVG(a) + COUNT(*)", "b, COUNT(*)",
        ]))
        having = draw(st.sampled_from([
            "", "", " HAVING COUNT(*) > 1", " HAVING SUM(b) IS NOT NULL",
            " HAVING MAX(a) = a",
        ]))
        body = f"{items} FROM {source}{where} GROUP BY {key}{having}"
    elif shape == 1:  # ungrouped aggregate (one row even over nothing)
        items = draw(st.sampled_from([
            "COUNT(*)", "SUM(a), MAX(b)", "COUNT(a) + 1 AS n", "a, COUNT(*)",
            "*, COUNT(*)", "COALESCE(SUM(b), 0)", "COUNT(*), $missing",
        ]))
        body = f"{items} FROM {source}{where}"
    else:
        items = draw(st.lists(
            st.one_of(
                st.sampled_from(["*", "t.*", "a", "b AS a", "t.a", "c", "x",
                                 "u.*", "a AS k"]),
                _expression(2).map(lambda e: f"{e} AS v"),
                _expression(1),
            ),
            min_size=1, max_size=3,
        ))
        body = f"{', '.join(items)} FROM {source}{where}"
    distinct = draw(st.sampled_from(["", "", "DISTINCT "]))
    order = draw(st.sampled_from(
        ["", " ORDER BY 1", " ORDER BY 1 DESC", " ORDER BY 1, 2 DESC"] * 4
        + [" ORDER BY a", " ORDER BY t.a DESC, v", " ORDER BY k DESC",
           " ORDER BY 9", " ORDER BY a + 1"]
    ))
    limit = draw(st.sampled_from(
        ["", " LIMIT 2", " LIMIT 1 OFFSET 1", " LIMIT $q"] * 4
        + [" LIMIT $missing", " LIMIT a"]
    ))
    return f"SELECT {distinct}{body}{order}{limit}"


class TestCompiledMatchesTreeWalk:
    @given(_T_ROWS, _U_ROWS, _INDEXES, _PARAMS, _expression(3))
    @settings(max_examples=400, deadline=None)
    def test_expressions(self, t_rows, u_rows, indexes, params, expression):
        db = _build_db(t_rows, u_rows, indexes)
        _assert_same(db, f"SELECT {expression} AS v FROM t", params)
        _assert_same(db, f"SELECT a FROM t WHERE {expression}", params)
        _assert_same(db, f"SELECT {expression}", params)

    @given(_T_ROWS, _U_ROWS, _INDEXES, _PARAMS, _select())
    @settings(max_examples=600, deadline=None)
    def test_selects(self, t_rows, u_rows, indexes, params, select):
        _assert_same(_build_db(t_rows, u_rows, indexes), select, params)

    @given(_T_ROWS, _INDEXES, _PARAMS, _where(), _expression(2))
    @settings(max_examples=150, deadline=None)
    def test_update_and_delete(self, t_rows, indexes, params, where, value):
        import copy

        db = _build_db(t_rows, [], indexes)
        for sql in (f"UPDATE t SET b = {value}, c = 'z'{where}",
                    f"DELETE FROM t{where}"):
            twin = copy.deepcopy(db)
            expected = _outcome(TreeWalkDatabase(twin), sql, params)
            got = _outcome(db, sql, params)
            if expected[0] == "rows":
                assert got == expected, sql
                assert db.table("t").rows() == twin.table("t").rows(), sql
            else:
                assert got[1:] == expected[1:], sql

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 6), st.integers(0, 1),
                      st.one_of(st.none(), st.floats(0, 80)),
                      st.one_of(st.none(), st.integers(0, 120))),
            max_size=12, unique_by=lambda row: row[:3],
        ),
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 9),
                      st.integers(0, 100)),
            max_size=8,
        ),
        st.fixed_dictionaries({
            "xway": st.integers(0, 1), "segment": st.integers(0, 6),
            "direction": st.integers(0, 1), "now": st.integers(0, 160),
        }),
    )
    @settings(max_examples=200, deadline=None)
    def test_linear_road_statements(self, stats, accidents, params):
        from repro.linearroad.db import (
            ACCIDENT_AHEAD_QUERY,
            create_linear_road_database,
            INSERT_ACCIDENT,
            READ_SEGMENT_ROW,
            TOLL_QUERY,
            UPSERT_SEGMENT_ROW,
        )

        db = create_linear_road_database()
        for xway, seg, direction, lav, cars in stats:
            db.execute(UPSERT_SEGMENT_ROW, {
                "xway": xway, "seg": seg, "dir": direction,
                "lav": lav, "cars": cars,
            })
        for xway, direction, segment, timestamp in accidents:
            db.execute(INSERT_ACCIDENT, {
                "xway": xway, "direction": direction, "segment": segment,
                "position": segment * 5280, "timestamp": timestamp,
            })
        _assert_same(db, TOLL_QUERY, params)
        _assert_same(db, ACCIDENT_AHEAD_QUERY, params)
        _assert_same(db, READ_SEGMENT_ROW, {
            "xway": params["xway"], "seg": params["segment"],
            "dir": params["direction"],
        })

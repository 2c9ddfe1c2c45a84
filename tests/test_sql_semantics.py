"""Deeper SQL semantics: expressions, grouping, NULL logic, nesting."""

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import QueryError


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE m (k INTEGER, grp TEXT, v FLOAT, flag BOOLEAN)"
    )
    rows = [
        (1, "a", 10.0, True),
        (2, "a", 20.0, False),
        (3, "b", 30.0, True),
        (4, "b", None, None),
        (5, "c", 50.0, False),
    ]
    for row in rows:
        database.execute(
            "INSERT INTO m VALUES ($k, $g, $v, $f)",
            {"k": row[0], "g": row[1], "v": row[2], "f": row[3]},
        )
    return database


class TestExpressionSemantics:
    def test_arithmetic_precedence(self, db):
        assert db.execute("SELECT 2 + 3 * 4 - 1").scalar() == 13

    def test_division_by_zero_yields_null(self, db):
        assert db.execute("SELECT 1 / 0").scalar() is None
        assert db.execute("SELECT 5 % 0").scalar() is None

    def test_string_concat(self, db):
        assert db.execute("SELECT 'a' || 'b' || 1").scalar() == "ab1"

    def test_boolean_literals_filter(self, db):
        result = db.execute("SELECT k FROM m WHERE flag = TRUE")
        assert sorted(r[0] for r in result) == [1, 3]

    def test_null_flag_is_neither(self, db):
        true_side = db.execute(
            "SELECT COUNT(*) FROM m WHERE flag = TRUE"
        ).scalar()
        false_side = db.execute(
            "SELECT COUNT(*) FROM m WHERE flag = FALSE"
        ).scalar()
        assert true_side + false_side == 4  # the NULL row in neither

    def test_not_of_null_is_null(self, db):
        # WHERE NOT (v > 100) excludes the NULL-v row (UNKNOWN).
        result = db.execute("SELECT k FROM m WHERE NOT (v > 100)")
        assert sorted(r[0] for r in result) == [1, 2, 3, 5]

    def test_coalesce_and_ifnull(self, db):
        assert db.execute(
            "SELECT COALESCE(NULL, NULL, 7)"
        ).scalar() == 7
        assert db.execute("SELECT IFNULL(NULL, 3)").scalar() == 3
        assert db.execute("SELECT IFNULL(2, 3)").scalar() == 2

    def test_scalar_function_null_propagation(self, db):
        assert db.execute("SELECT POWER(NULL, 2)").scalar() is None
        assert db.execute("SELECT ROUND(2.567, 1)").scalar() == 2.6
        assert db.execute("SELECT ABS(-4)").scalar() == 4

    def test_case_with_operand_form(self, db):
        result = db.execute(
            "SELECT k, CASE grp WHEN 'a' THEN 1 WHEN 'b' THEN 2 END "
            "FROM m ORDER BY k"
        )
        assert [r[1] for r in result] == [1, 1, 2, 2, None]

    def test_unknown_function_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT FROBNICATE(1)")


    def test_simple_case_never_matches_null(self, db):
        # CASE x WHEN y is ``x = y`` under 3-valued logic: UNKNOWN for NULL.
        rows = db.execute(
            "SELECT k, CASE v WHEN NULL THEN 'isnull' WHEN 10.0 THEN 'ten' "
            "ELSE 'other' END FROM m ORDER BY k"
        ).rows
        assert rows == [
            (1, "ten"), (2, "other"), (3, "other"), (4, "other"), (5, "other")
        ]
        assert db.execute(
            "SELECT CASE NULL WHEN NULL THEN 1 END"
        ).scalar() is None
        assert db.execute(
            "SELECT CASE $x WHEN $y THEN 'hit' ELSE 'miss' END",
            {"x": None, "y": None},
        ).scalar() == "miss"


class TestGroupingSemantics:
    def test_group_by_expression(self, db):
        result = db.execute(
            "SELECT k % 2, COUNT(*) FROM m GROUP BY k % 2 ORDER BY 1"
        )
        assert result.rows == [(0, 2), (1, 3)]

    def test_having_on_aggregate_expression(self, db):
        # Sums per group: a=30, b=30 (NULL skipped), c=50.
        result = db.execute(
            "SELECT grp FROM m GROUP BY grp "
            "HAVING SUM(v) > 40 ORDER BY grp"
        )
        assert [r[0] for r in result] == ["c"]

    def test_identical_aggregates_share_a_slot(self, db):
        result = db.execute(
            "SELECT grp, AVG(v), AVG(v) * 2 FROM m GROUP BY grp "
            "ORDER BY grp"
        )
        for _, avg, double in result:
            assert double == pytest.approx(avg * 2)

    def test_aggregate_of_expression(self, db):
        assert db.execute(
            "SELECT SUM(v * 2) FROM m WHERE grp = 'a'"
        ).scalar() == 60.0

    def test_case_inside_aggregate(self, db):
        # Conditional counting — the classic pivot idiom.
        result = db.execute(
            "SELECT SUM(CASE WHEN flag THEN 1 ELSE 0 END) FROM m"
        )
        assert result.scalar() == 2

    def test_group_over_join_key_null_group(self, db):
        result = db.execute(
            "SELECT flag, COUNT(*) FROM m GROUP BY flag ORDER BY 2 DESC"
        )
        groups = dict(result.rows)
        assert groups[True] == 2 and groups[False] == 2
        assert groups[None] == 1  # NULL forms its own group


class TestNestedQueries:
    def test_subquery_inside_case(self, db):
        value = db.execute(
            "SELECT CASE WHEN (SELECT COUNT(*) FROM m) > 3 "
            "THEN 'many' ELSE 'few' END"
        ).scalar()
        assert value == "many"

    def test_two_level_correlation(self, db):
        # For each row: count rows in the same group with larger v.
        result = db.execute(
            "SELECT k, (SELECT COUNT(*) FROM m AS inner_m "
            "WHERE inner_m.grp = m.grp AND inner_m.v > m.v) "
            "FROM m WHERE grp = 'a' ORDER BY k"
        )
        assert result.rows == [(1, 1), (2, 0)]

    def test_arithmetic_over_scalar_subqueries(self, db):
        value = db.execute(
            "SELECT (SELECT MAX(v) FROM m) - (SELECT MIN(v) FROM m)"
        ).scalar()
        assert value == 40.0

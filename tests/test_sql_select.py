"""End-to-end SELECT execution: filters, aggregates, ordering."""

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import QueryError, SchemaError


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE cars (id INTEGER, seg INTEGER, speed FLOAT, "
        "name TEXT, PRIMARY KEY (id))"
    )
    rows = [
        (1, 10, 55.0, "alpha"),
        (2, 10, 45.0, "bravo"),
        (3, 11, 65.0, "charlie"),
        (4, 11, None, "delta"),
        (5, 12, 30.0, "echo"),
    ]
    for row in rows:
        database.execute(
            "INSERT INTO cars VALUES ($a, $b, $c, $d)",
            dict(zip("abcd", row)),
        )
    return database


class TestBasics:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM cars")
        assert len(result) == 5
        assert result.columns == ["id", "seg", "speed", "name"]

    def test_projection_and_expression(self, db):
        result = db.execute("SELECT id, speed * 2 AS double FROM cars WHERE id = 1")
        assert result.first() == {"id": 1, "double": 110.0}

    def test_where_filters(self, db):
        assert len(db.execute("SELECT id FROM cars WHERE seg = 10")) == 2

    def test_where_null_comparison_filters_out(self, db):
        # speed > 50 is UNKNOWN for the NULL row: excluded.
        result = db.execute("SELECT id FROM cars WHERE speed > 50")
        assert sorted(r[0] for r in result) == [1, 3]

    def test_is_null(self, db):
        assert db.execute(
            "SELECT id FROM cars WHERE speed IS NULL"
        ).scalar() == 4

    def test_in_list(self, db):
        result = db.execute("SELECT id FROM cars WHERE seg IN (10, 12)")
        assert sorted(r[0] for r in result) == [1, 2, 5]

    def test_between(self, db):
        result = db.execute(
            "SELECT id FROM cars WHERE speed BETWEEN 40 AND 60"
        )
        assert sorted(r[0] for r in result) == [1, 2]

    def test_like(self, db):
        result = db.execute("SELECT name FROM cars WHERE name LIKE '%lph%'")
        assert result.scalar() == "alpha"

    def test_select_without_from(self, db):
        assert db.execute("SELECT 1 + 1").scalar() == 2

    def test_unknown_table_rejected(self, db):
        with pytest.raises(SchemaError):
            db.execute("SELECT * FROM nope")

    def test_unknown_column_rejected(self, db):
        with pytest.raises(SchemaError):
            db.execute("SELECT bogus FROM cars")

    def test_distinct(self, db):
        assert len(db.execute("SELECT DISTINCT seg FROM cars")) == 3


class TestAggregates:
    def test_count_star_vs_column(self, db):
        assert db.execute("SELECT COUNT(*) FROM cars").scalar() == 5
        # COUNT(speed) skips the NULL.
        assert db.execute("SELECT COUNT(speed) FROM cars").scalar() == 4

    def test_sum_avg_min_max(self, db):
        row = db.execute(
            "SELECT SUM(speed), AVG(speed), MIN(speed), MAX(speed) FROM cars"
        ).rows[0]
        assert row == (195.0, 48.75, 30.0, 65.0)

    def test_aggregate_over_empty_is_null(self, db):
        assert db.execute(
            "SELECT MAX(speed) FROM cars WHERE seg = 99"
        ).scalar() is None

    def test_count_over_empty_is_zero(self, db):
        assert db.execute(
            "SELECT COUNT(*) FROM cars WHERE seg = 99"
        ).scalar() == 0

    def test_group_by(self, db):
        result = db.execute(
            "SELECT seg, COUNT(*) AS n FROM cars GROUP BY seg ORDER BY seg"
        )
        assert result.rows == [(10, 2), (11, 2), (12, 1)]

    def test_group_by_with_having(self, db):
        result = db.execute(
            "SELECT seg FROM cars GROUP BY seg HAVING COUNT(*) > 1 "
            "ORDER BY seg"
        )
        assert [r[0] for r in result] == [10, 11]

    def test_count_distinct(self, db):
        assert db.execute(
            "SELECT COUNT(DISTINCT seg) FROM cars"
        ).scalar() == 3

    def test_aggregate_expression_combination(self, db):
        value = db.execute(
            "SELECT MAX(speed) - MIN(speed) FROM cars WHERE seg = 10"
        ).scalar()
        assert value == 10.0

    def test_bare_aggregate_outside_query_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT id FROM cars WHERE COUNT(*) > 1")


class TestOrderingAndLimits:
    def test_order_by_column(self, db):
        result = db.execute("SELECT name FROM cars ORDER BY name DESC")
        assert result.rows[0][0] == "echo"

    def test_order_by_position(self, db):
        result = db.execute("SELECT id, speed FROM cars ORDER BY 2")
        # NULL speed sorts first ascending.
        assert result.rows[0][1] is None
        assert result.rows[1][1] == 30.0
        assert result.rows[-1][1] == 65.0

    def test_order_desc_keeps_nulls_last(self, db):
        result = db.execute("SELECT speed FROM cars ORDER BY speed DESC")
        assert result.rows[0][0] == 65.0
        assert result.rows[-1][0] is None

    def test_limit_offset(self, db):
        result = db.execute(
            "SELECT id FROM cars ORDER BY id LIMIT 2 OFFSET 1"
        )
        assert [r[0] for r in result] == [2, 3]

    def test_multi_key_order(self, db):
        result = db.execute(
            "SELECT seg, id FROM cars ORDER BY seg DESC, id ASC"
        )
        assert result.rows[0] == (12, 5)
        assert result.rows[1] == (11, 3)


class TestIndexedAccess:
    def test_pk_equality_uses_index(self, db):
        # Behavioural check: correctness with the index path.
        result = db.execute("SELECT name FROM cars WHERE id = 3")
        assert result.scalar() == "charlie"

    def test_secondary_index_used_for_equality(self, db):
        db.execute("CREATE INDEX by_seg ON cars (seg)")
        result = db.execute("SELECT COUNT(*) FROM cars WHERE seg = 10")
        assert result.scalar() == 2

    def test_index_with_extra_predicates(self, db):
        db.execute("CREATE INDEX by_seg ON cars (seg)")
        result = db.execute(
            "SELECT id FROM cars WHERE seg = 10 AND speed > 50"
        )
        assert result.scalar() == 1


class TestResultHelpers:
    def test_scalar_empty(self, db):
        assert db.execute("SELECT id FROM cars WHERE id = 99").scalar() is None

    def test_as_dicts(self, db):
        dicts = db.execute("SELECT id FROM cars WHERE id = 1").as_dicts()
        assert dicts == [{"id": 1}]

    def test_case_expression(self, db):
        result = db.execute(
            "SELECT id, CASE WHEN speed >= 50 THEN 'fast' "
            "WHEN speed IS NULL THEN 'unknown' ELSE 'slow' END AS label "
            "FROM cars ORDER BY id"
        )
        labels = [r[1] for r in result]
        assert labels == ["fast", "slow", "fast", "unknown", "slow"]

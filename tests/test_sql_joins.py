"""Joins: INNER/LEFT/CROSS, hash-accelerated equi-joins, star expansion."""

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import QueryError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE seg (id INTEGER, name TEXT)")
    database.execute("CREATE TABLE acc (seg_id INTEGER, ts INTEGER)")
    for row in [(1, "north"), (2, "mid"), (3, "south")]:
        database.execute(
            "INSERT INTO seg VALUES ($a, $b)", {"a": row[0], "b": row[1]}
        )
    for row in [(1, 100), (1, 200), (3, 50)]:
        database.execute(
            "INSERT INTO acc VALUES ($a, $b)", {"a": row[0], "b": row[1]}
        )
    return database


class TestInnerJoin:
    def test_equi_join(self, db):
        result = db.execute(
            "SELECT seg.name, acc.ts FROM seg JOIN acc "
            "ON acc.seg_id = seg.id ORDER BY 2"
        )
        assert result.rows == [
            ("south", 50),
            ("north", 100),
            ("north", 200),
        ]

    def test_inner_keyword_equivalent(self, db):
        a = db.execute(
            "SELECT COUNT(*) FROM seg JOIN acc ON acc.seg_id = seg.id"
        ).scalar()
        b = db.execute(
            "SELECT COUNT(*) FROM seg INNER JOIN acc ON acc.seg_id = seg.id"
        ).scalar()
        assert a == b == 3

    def test_join_with_where_filter(self, db):
        result = db.execute(
            "SELECT acc.ts FROM seg JOIN acc ON acc.seg_id = seg.id "
            "WHERE seg.name = 'north' ORDER BY 1"
        )
        assert [r[0] for r in result] == [100, 200]

    def test_non_equi_condition_falls_back_to_nested_loop(self, db):
        result = db.execute(
            "SELECT seg.id, acc.ts FROM seg JOIN acc ON acc.ts > seg.id * 60"
        )
        # ts>60: (1,100),(1,200),(2,200)... check manually:
        expected = {
            (s, t)
            for s in (1, 2, 3)
            for t in (100, 200, 50)
            if t > s * 60
        }
        assert set(result.rows) == expected

    def test_aliased_join(self, db):
        result = db.execute(
            "SELECT s.name FROM seg AS s JOIN acc AS a ON a.seg_id = s.id "
            "WHERE a.ts = 50"
        )
        assert result.scalar() == "south"

    def test_duplicate_binding_rejected(self, db):
        # A table joined to itself without an alias cannot be referenced.
        with pytest.raises(QueryError, match="ambiguous"):
            db.execute("SELECT id FROM seg JOIN seg ON 1 = 1")

    def test_self_join_with_aliases(self, db):
        result = db.execute(
            "SELECT a.id, b.id FROM seg a JOIN seg b ON b.id = a.id + 1"
        )
        assert sorted(result.rows) == [(1, 2), (2, 3)]


class TestLeftJoin:
    def test_unmatched_left_rows_padded_with_nulls(self, db):
        result = db.execute(
            "SELECT seg.name, acc.ts FROM seg LEFT JOIN acc "
            "ON acc.seg_id = seg.id ORDER BY seg.name"
        )
        assert ("mid", None) in result.rows
        assert len(result.rows) == 4

    def test_left_outer_spelling(self, db):
        count = db.execute(
            "SELECT COUNT(*) FROM seg LEFT OUTER JOIN acc "
            "ON acc.seg_id = seg.id"
        ).scalar()
        assert count == 4

    def test_null_padded_rows_filterable(self, db):
        result = db.execute(
            "SELECT seg.name FROM seg LEFT JOIN acc "
            "ON acc.seg_id = seg.id WHERE acc.ts IS NULL"
        )
        assert result.scalar() == "mid"


class TestCrossJoin:
    def test_comma_is_cross_product(self, db):
        assert db.execute(
            "SELECT COUNT(*) FROM seg, acc"
        ).scalar() == 9

    def test_cross_join_keyword(self, db):
        assert db.execute(
            "SELECT COUNT(*) FROM seg CROSS JOIN acc"
        ).scalar() == 9

    def test_cross_with_where_emulates_inner(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM seg, acc WHERE acc.seg_id = seg.id"
        )
        assert result.scalar() == 3


class TestJoinProjection:
    def test_bare_star_spans_both_tables(self, db):
        result = db.execute(
            "SELECT * FROM seg JOIN acc ON acc.seg_id = seg.id LIMIT 1"
        )
        assert result.columns == ["id", "name", "seg_id", "ts"]
        assert len(result.rows[0]) == 4

    def test_table_star(self, db):
        result = db.execute(
            "SELECT acc.* FROM seg JOIN acc ON acc.seg_id = seg.id LIMIT 1"
        )
        assert result.columns == ["seg_id", "ts"]

    def test_aggregation_over_join(self, db):
        result = db.execute(
            "SELECT seg.name, COUNT(acc.ts) FROM seg LEFT JOIN acc "
            "ON acc.seg_id = seg.id GROUP BY seg.name ORDER BY seg.name"
        )
        assert result.rows == [("mid", 0), ("north", 2), ("south", 1)]

    def test_ambiguous_unqualified_column_rejected(self, db):
        db.execute("CREATE TABLE acc2 (seg_id INTEGER)")
        db.execute("INSERT INTO acc2 VALUES (1)")
        with pytest.raises(QueryError):
            db.execute(
                "SELECT seg_id FROM acc JOIN acc2 ON acc2.seg_id = acc.seg_id"
            )

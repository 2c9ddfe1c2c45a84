"""Subqueries: scalar, EXISTS, IN — including correlation."""

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import QueryError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE seg (id INTEGER, lav FLOAT)")
    database.execute("CREATE TABLE acc (seg_id INTEGER, ts INTEGER)")
    for row in [(1, 30.0), (2, 50.0), (3, 20.0)]:
        database.execute(
            "INSERT INTO seg VALUES ($a, $b)", {"a": row[0], "b": row[1]}
        )
    for row in [(1, 100), (1, 200), (3, 50)]:
        database.execute(
            "INSERT INTO acc VALUES ($a, $b)", {"a": row[0], "b": row[1]}
        )
    return database


class TestScalarSubqueries:
    def test_uncorrelated(self, db):
        assert db.execute(
            "SELECT (SELECT COUNT(*) FROM acc)"
        ).scalar() == 3

    def test_correlated_counts_per_row(self, db):
        result = db.execute(
            "SELECT id, (SELECT COUNT(*) FROM acc WHERE seg_id = id) "
            "FROM seg ORDER BY id"
        )
        assert result.rows == [(1, 2), (2, 0), (3, 1)]

    def test_empty_scalar_subquery_is_null(self, db):
        assert db.execute(
            "SELECT (SELECT ts FROM acc WHERE seg_id = 99)"
        ).scalar() is None

    def test_multicolumn_scalar_subquery_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT (SELECT seg_id, ts FROM acc WHERE ts = 50)")

    def test_subquery_in_where(self, db):
        result = db.execute(
            "SELECT id FROM seg WHERE "
            "(SELECT COUNT(*) FROM acc WHERE seg_id = id) = 0"
        )
        assert result.scalar() == 2

    def test_alias_shadowing_inner_first(self, db):
        # Inner binding wins for ambiguous names, as in standard SQL.
        result = db.execute(
            "SELECT id, (SELECT MAX(ts) FROM acc a WHERE a.seg_id = seg.id)"
            " FROM seg ORDER BY id"
        )
        assert result.rows == [(1, 200), (2, None), (3, 50)]


class TestExists:
    def test_exists_correlated(self, db):
        result = db.execute(
            "SELECT id FROM seg WHERE EXISTS "
            "(SELECT 1 FROM acc WHERE seg_id = id) ORDER BY id"
        )
        assert [r[0] for r in result] == [1, 3]

    def test_not_exists(self, db):
        result = db.execute(
            "SELECT id FROM seg WHERE NOT EXISTS "
            "(SELECT 1 FROM acc WHERE seg_id = id)"
        )
        assert result.scalar() == 2


class TestInSubquery:
    def test_in(self, db):
        result = db.execute(
            "SELECT id FROM seg WHERE id IN (SELECT seg_id FROM acc) "
            "ORDER BY id"
        )
        assert [r[0] for r in result] == [1, 3]

    def test_not_in(self, db):
        result = db.execute(
            "SELECT id FROM seg WHERE id NOT IN (SELECT seg_id FROM acc)"
        )
        assert result.scalar() == 2

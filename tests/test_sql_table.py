"""Storage through SQL: schemas, column types, primary keys, indexes.

The tables are ``STRICT``, as the Linear Road ones are, so a value that
does not convert losslessly to its column's type is refused.
"""

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import ConstraintError, SchemaError

STATS = (
    "CREATE TABLE stats (xway INTEGER, seg INTEGER, lav REAL, "
    "PRIMARY KEY (xway, seg)) STRICT"
)


@pytest.fixture
def db():
    database = Database()
    database.execute(STATS)
    return database


def insert(db, xway, seg, lav=None, verb="INSERT"):
    db.execute(
        f"{verb} INTO stats VALUES ($xway, $seg, $lav)",
        {"xway": xway, "seg": seg, "lav": lav},
    )


def lav_at(db, xway, seg):
    return db.execute(
        "SELECT lav FROM stats WHERE xway = $x AND seg = $s",
        {"x": xway, "s": seg},
    ).first()


class TestSchema:
    def test_duplicate_column_rejected(self, db):
        with pytest.raises(SchemaError):
            db.execute("CREATE TABLE t (a INTEGER, a TEXT)")

    def test_pk_column_must_exist(self, db):
        with pytest.raises(SchemaError):
            db.execute("CREATE TABLE t (a INTEGER, PRIMARY KEY (b))")

    def test_coercion_per_type(self, db):
        db.execute("CREATE TABLE t (i INTEGER, r REAL, s TEXT) STRICT")
        db.execute("INSERT INTO t VALUES ('42', 1, 5)")
        assert db.execute("SELECT * FROM t").rows == [(42, 1.0, "5")]

    def test_not_null_enforced(self, db):
        db.execute("CREATE TABLE t (a INTEGER NOT NULL) STRICT")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (NULL)")

    def test_bad_value_rejected(self, db):
        with pytest.raises(ConstraintError, match="cannot store TEXT"):
            insert(db, "not-a-number", 1)


class TestMutation:
    def test_insert_and_scan(self, db):
        insert(db, 0, 1, 40.0)
        assert db.execute("SELECT * FROM stats").rows == [(0, 1, 40.0)]

    def test_missing_columns_become_null(self, db):
        db.execute("INSERT INTO stats (xway, seg) VALUES (0, 1)")
        assert lav_at(db, 0, 1) == {"lav": None}

    def test_unknown_column_rejected(self, db):
        with pytest.raises(SchemaError):
            db.execute("INSERT INTO stats (xway, seg, bogus) VALUES (0, 1, 1)")

    def test_duplicate_pk_rejected(self, db):
        insert(db, 0, 1)
        with pytest.raises(ConstraintError):
            insert(db, 0, 1)

    def test_or_replace_upserts(self, db):
        insert(db, 0, 1, 10.0)
        insert(db, 0, 1, 99.0, verb="INSERT OR REPLACE")
        assert db.execute("SELECT COUNT(*) FROM stats").scalar() == 1
        assert lav_at(db, 0, 1) == {"lav": 99.0}

    def test_null_pk_rejected(self, db):
        # STRICT makes primary-key columns NOT NULL.
        with pytest.raises(ConstraintError):
            insert(db, None, 1)

    def test_delete_rowids(self, db):
        insert(db, 0, 1)
        assert db.execute(
            "DELETE FROM stats WHERE rowid IN (1, 999)"
        ).rowcount == 1
        assert db.execute("SELECT COUNT(*) FROM stats").scalar() == 0
        assert lav_at(db, 0, 1) is None

    def test_update_row_maintains_pk_index(self, db):
        insert(db, 0, 1, 1.0)
        db.execute("UPDATE stats SET seg = 2 WHERE seg = 1")
        assert lav_at(db, 0, 1) is None
        assert lav_at(db, 0, 2) == {"lav": 1.0}

    def test_update_into_pk_conflict_rejected(self, db):
        insert(db, 0, 1)
        insert(db, 0, 2)
        with pytest.raises(ConstraintError):
            db.execute("UPDATE stats SET seg = 1 WHERE seg = 2")

    def test_clear_resets_rows_and_indexes(self, db):
        db.execute("CREATE INDEX by_seg ON stats (seg)")
        insert(db, 0, 1)
        db.execute("DELETE FROM stats")
        assert db.execute("SELECT COUNT(*) FROM stats").scalar() == 0
        assert db.execute("SELECT xway FROM stats WHERE seg = 1").rows == []


class TestIndexes:
    def test_secondary_index_backfilled(self, db):
        insert(db, 0, 1)
        insert(db, 0, 2)
        db.execute("CREATE INDEX by_lav ON stats (lav)")
        sql = "SELECT seg FROM stats WHERE lav IS NULL"
        assert db.explain(sql) == [
            "SEARCH stats USING INDEX by_lav (lav=?)"
        ]
        assert len(db.execute(sql)) == 2

    def test_index_maintained_on_insert_delete(self, db):
        db.execute("CREATE INDEX by_seg ON stats (seg)")
        sql = "SELECT xway FROM stats WHERE seg = 7"
        insert(db, 0, 7)
        assert db.execute(sql).rows == [(0,)]
        db.execute("DELETE FROM stats WHERE seg = 7")
        assert db.execute(sql).rows == []

    def test_duplicate_index_name_rejected(self, db):
        db.execute("CREATE INDEX i ON stats (seg)")
        with pytest.raises(SchemaError):
            db.execute("CREATE INDEX i ON stats (xway)")

    def test_index_on_unknown_column_rejected(self, db):
        with pytest.raises(SchemaError):
            db.execute("CREATE INDEX i ON stats (bogus)")

    def test_best_index_prefers_most_columns(self, db):
        db.execute("CREATE INDEX by_seg ON stats (seg)")
        assert db.explain(
            "SELECT lav FROM stats WHERE xway = 0 AND seg = 1"
        ) == [
            "SEARCH stats USING INDEX sqlite_autoindex_stats_1 "
            "(xway=? AND seg=?)"
        ]

    def test_best_index_requires_full_cover(self, db):
        # The key (xway, seg) serves its leading column, not seg alone.
        assert db.explain("SELECT lav FROM stats WHERE seg = 1") == [
            "SCAN stats"
        ]

    def test_lookup_index_skips_dead_rowids(self, db):
        db.execute("CREATE INDEX by_seg ON stats (seg)")
        insert(db, 0, 3)
        insert(db, 1, 3)
        db.execute("DELETE FROM stats WHERE xway = 0")
        assert db.execute(
            "SELECT rowid, xway FROM stats WHERE seg = 3"
        ).rows == [(2, 1)]

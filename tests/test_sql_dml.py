"""INSERT/UPDATE/DELETE and DDL execution."""

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import ConstraintError, QueryError, SchemaError


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE t (a INTEGER, b TEXT, PRIMARY KEY (a))"
    )
    return database


class TestInsert:
    def test_insert_reports_rowcount(self, db):
        result = db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert result.rowcount == 2

    def test_insert_with_params(self, db):
        db.execute("INSERT INTO t (a, b) VALUES ($a, $b)", {"a": 1, "b": "x"})
        assert db.execute("SELECT b FROM t WHERE a = 1").scalar() == "x"

    def test_arity_mismatch_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("INSERT INTO t (a, b) VALUES (1)")

    def test_duplicate_column_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("INSERT INTO t (a, a) VALUES (1, 2)")

    def test_pk_conflict(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x')")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (1, 'y')")
        db.execute("INSERT OR REPLACE INTO t VALUES (1, 'y')")
        assert db.execute("SELECT b FROM t WHERE a = 1").scalar() == "y"


class TestUpdate:
    def test_update_with_expression(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        count = db.execute("UPDATE t SET a = a + 10 WHERE b = 'x'").rowcount
        assert count == 1
        assert db.execute("SELECT a FROM t WHERE b = 'x'").scalar() == 11

    def test_update_all_rows(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert db.execute("UPDATE t SET b = 'z'").rowcount == 2

    def test_update_unknown_column_rejected(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x')")
        with pytest.raises(SchemaError):
            db.execute("UPDATE t SET nope = 1")


class TestDelete:
    def test_delete_where(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert db.execute("DELETE FROM t WHERE a = 1").rowcount == 1
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_delete_all(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x')")
        db.execute("DELETE FROM t")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_delete_while_scanning_needs_the_snapshot(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        table = db.table("t")
        # The default scan is a live view of the heap (no copy per heap
        # scan): deleting under it is the caller's bug, and says so.
        with pytest.raises(RuntimeError, match="changed size"):
            for rowid, _ in table.scan():
                table.delete_rowids([rowid])
        assert len(table) == 2
        # A mutating caller asks for the snapshot and visits every row.
        visited = []
        for rowid, row in table.scan(snapshot=True):
            visited.append(row["a"])
            table.delete_rowids([rowid])
        assert visited == [2, 3] and len(table) == 0

    def test_delete_that_empties_the_table_mid_statement(self, db):
        """DELETE/UPDATE scan a snapshot: every row is judged once."""
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        assert db.execute("UPDATE t SET a = a + 10").rowcount == 3
        assert db.execute("DELETE FROM t WHERE a > 10").rowcount == 3
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0


class TestDDL:
    def test_create_duplicate_rejected(self, db):
        with pytest.raises(SchemaError):
            db.execute("CREATE TABLE t (a INTEGER)")

    def test_if_not_exists_tolerated(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS t (a INTEGER)")

    def test_drop(self, db):
        db.execute("DROP TABLE t")
        with pytest.raises(SchemaError):
            db.execute("SELECT * FROM t")

    def test_drop_missing_needs_if_exists(self, db):
        with pytest.raises(SchemaError):
            db.execute("DROP TABLE nope")
        db.execute("DROP TABLE IF EXISTS nope")

    def test_create_index_statement(self, db):
        db.execute("CREATE INDEX by_b ON t (b)")
        assert "by_b" in db.table("t").indexes


class TestDatabaseFacade:
    def test_statement_cache_reused(self, db, monkeypatch):
        from repro.sqldb import database

        prepared = []
        real_prepare = database.prepare

        def counting_prepare(*args):
            prepared.append(args)
            return real_prepare(*args)

        monkeypatch.setattr(database, "prepare", counting_prepare)
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        before = len(prepared)
        sql = "SELECT b FROM t WHERE a = $a"
        assert db.execute(sql, {"a": 1}).rows == [("x",)]
        assert db.execute(sql, {"a": 2}).rows == [("y",)]
        assert len(prepared) == before + 1

    def test_statements_counted(self, db):
        count = db.statements_executed
        db.execute("SELECT 1")
        assert db.statements_executed == count + 1

    def test_missing_parameter_rejected(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x')")
        with pytest.raises(QueryError):
            db.execute("SELECT * FROM t WHERE b = $missing")


class TestPreparedPlans:
    """A cached plan is derived state: it follows the catalog and is never
    part of a copy, a pickle or a checkpoint."""

    SQL = "SELECT * FROM t WHERE b = $b"

    @pytest.fixture
    def warm(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')")
        assert db.explain(self.SQL) == ["SCAN t"]
        assert len(db.execute(self.SQL, {"b": "x"})) == 2
        return db

    def test_sql_create_index_is_seen(self, warm):
        warm.execute("CREATE INDEX by_b ON t (b)")
        assert warm.explain(self.SQL) == ["INDEX t USING by_b(b)"]
        assert warm.execute(self.SQL, {"b": "x"}).rows == [(1, "x"), (3, "x")]

    def test_table_create_index_is_seen(self, warm):
        warm.table("t").create_index("by_b", ("b",))
        assert warm.explain(self.SQL) == ["INDEX t USING by_b(b)"]
        assert warm.execute(self.SQL, {"b": "y"}).rows == [(2, "y")]

    def test_sql_drop_and_recreate_is_seen(self, warm):
        warm.execute("DROP TABLE t")
        with pytest.raises(SchemaError):
            warm.execute(self.SQL, {"b": "x"})
        warm.execute("CREATE TABLE t (b TEXT, c INTEGER, d INTEGER)")
        warm.execute("INSERT INTO t VALUES ('x', 7, 8)")
        result = warm.execute(self.SQL, {"b": "x"})
        assert result.columns == ["b", "c", "d"]
        assert result.rows == [("x", 7, 8)]

    def test_api_drop_and_recreate_is_seen(self, warm):
        from repro.sqldb import Column

        warm.drop_table("t")
        table = warm.create_table(
            "t", [Column("b", "TEXT"), Column("n", "INTEGER")]
        )
        table.insert({"b": "x", "n": 5})
        result = warm.execute(self.SQL, {"b": "x"})
        assert (result.columns, result.rows) == (["b", "n"], [("x", 5)])
        # DML plans hold the table too: this must reach the new one.
        warm.execute("INSERT INTO t VALUES ('x', 6)")
        assert len(table) == 2

    def test_state_restore_onto_rebuilt_database_is_seen(self, warm):
        warm.execute("CREATE INDEX by_b ON t (b)")
        assert len(warm.execute(self.SQL, {"b": "x"})) == 2
        state = warm.state_dump()

        rebuilt = Database()
        rebuilt.execute("CREATE TABLE t (a INTEGER, b TEXT, PRIMARY KEY (a))")
        rebuilt.execute("CREATE INDEX by_b ON t (b)")
        assert rebuilt.execute(self.SQL, {"b": "x"}).rows == []  # warm plan
        rebuilt.state_restore(state)
        assert rebuilt.execute(self.SQL, {"b": "x"}).rows == [
            (1, "x"), (3, "x")
        ]
        assert rebuilt.execute("SELECT b FROM t WHERE a = 2").scalar() == "y"
        rebuilt.table("t").clear()
        assert rebuilt.execute(self.SQL, {"b": "x"}).rows == []

    def test_plans_are_not_state(self, warm):
        before = warm.state_dump()
        warm.execute("SELECT COUNT(*) FROM t")
        after = warm.state_dump()
        after["statements_executed"] -= 1
        assert before == after
        assert set(before) == {"tables", "statements_executed"}

    def test_deepcopy_and_pickle_drop_the_plans(self, warm):
        import copy
        import pickle

        executed = warm.statements_executed
        for twin in (copy.deepcopy(warm), pickle.loads(pickle.dumps(warm))):
            assert twin.statements_executed == executed
            twin.execute("INSERT INTO t VALUES (4, 'x')")
            assert len(twin.execute(self.SQL, {"b": "x"})) == 3
            assert len(warm.execute(self.SQL, {"b": "x"})) == 2

    def test_one_plan_serves_concurrent_callers(self):
        """A plan is shared and immutable; each call owns its frame."""
        import sys
        import threading

        from repro.linearroad.db import (
            create_linear_road_database,
            TOLL_QUERY,
            UPSERT_SEGMENT_ROW,
        )

        lr = create_linear_road_database()
        for seg in range(40):
            lr.execute(UPSERT_SEGMENT_ROW, {
                "xway": 0, "seg": seg, "dir": 0, "lav": 30.0, "cars": 51 + seg,
            })
        wrong = []

        def worker(offset):
            for i in range(300):
                seg = (offset + i) % 40
                toll = lr.execute(TOLL_QUERY, {
                    "now": 0, "xway": 0, "segment": seg, "direction": 0,
                }).scalar()
                if toll != 2.0 * (1 + seg) ** 2:
                    wrong.append((seg, toll))

        threads = [
            threading.Thread(target=worker, args=(7 * n,)) for n in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

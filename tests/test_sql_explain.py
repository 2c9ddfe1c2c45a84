"""``Database.explain``: SQLite's access-path decisions are observable."""

import pytest

from repro.linearroad import db as lrdb
from repro.sqldb import Database
from repro.sqldb.errors import QueryError

LR_KEY = "sqlite_autoindex_segmentStatistics_1"


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE stats (xway INTEGER, seg INTEGER, dir INTEGER, "
        "lav FLOAT, PRIMARY KEY (xway, seg, dir))"
    )
    database.execute("CREATE TABLE acc (xway INTEGER, seg INTEGER)")
    database.execute("CREATE INDEX acc_by_xway ON acc (xway)")
    return database


@pytest.fixture
def lr():
    return lrdb.create_linear_road_database()


class TestExplain:
    def test_full_pk_equality_uses_pk_index(self, db):
        plan = db.explain(
            "SELECT lav FROM stats WHERE xway = 0 AND seg = 5 AND dir = 1"
        )
        assert plan == [
            "SEARCH stats USING INDEX sqlite_autoindex_stats_1 "
            "(xway=? AND seg=? AND dir=?)"
        ]

    def test_partial_pk_falls_back_to_scan(self, db):
        # Without the key's leading column the key cannot be searched.
        plan = db.explain("SELECT lav FROM stats WHERE seg = 0")
        assert plan == ["SCAN stats"]

    def test_secondary_index_selected(self, db):
        plan = db.explain("SELECT * FROM acc WHERE xway = $x", {"x": 0})
        assert plan == ["SEARCH acc USING INDEX acc_by_xway (xway=?)"]

    def test_plan_does_not_depend_on_parameters(self, db):
        # explain() prints the plan execute() runs, with or without params.
        assert db.explain("SELECT lav FROM stats WHERE xway = $x AND "
                          "seg = $s AND dir = $d") == [
            "SEARCH stats USING INDEX sqlite_autoindex_stats_1 "
            "(xway=? AND seg=? AND dir=?)"
        ]
        sql = "SELECT * FROM acc WHERE xway = $x"
        assert db.explain(sql) == [
            "SEARCH acc USING INDEX acc_by_xway (xway=?)"
        ]
        assert db.explain(sql, {}) == db.explain(sql, {"x": 0})

    def test_unhashable_key_parameter_names_the_parameter(self, db):
        # A value SQLite cannot store is refused on any column.
        for sql in ("SELECT * FROM acc WHERE xway = $x",
                    "SELECT * FROM acc WHERE seg = $x"):
            with pytest.raises(QueryError, match="binding parameter 1"):
                db.execute(sql, {"x": [1]})

    def test_inequality_not_indexable(self, db):
        plan = db.explain("SELECT * FROM acc WHERE xway <> 1")
        assert plan == ["SCAN acc"]

    def test_hash_join_detected(self, db):
        # SQLite's hash join: an automatic index on the inner join key.
        plan = db.explain(
            "SELECT 1 FROM stats JOIN acc ON acc.seg = stats.seg"
        )
        assert plan[1] == "SEARCH acc USING AUTOMATIC COVERING INDEX (seg=?)"

    def test_nested_loop_for_non_equi(self, db):
        plan = db.explain(
            "SELECT 1 FROM stats JOIN acc ON acc.seg > stats.seg"
        )
        assert [line.split()[0] for line in plan] == ["SCAN", "SCAN"]

    def test_cross_join(self, db):
        plan = db.explain("SELECT 1 FROM stats, acc")
        assert [line.split()[:2] for line in plan] == [
            ["SCAN", "stats"], ["SCAN", "acc"]
        ]

    def test_constant_select(self, db):
        assert db.explain("SELECT 1") == ["SCAN CONSTANT ROW"]

    def test_non_select_rejected(self, db):
        with pytest.raises(QueryError):
            db.explain("DELETE FROM acc")

    def test_toll_query_drives_through_pk(self, lr):
        plan = lr.explain(
            lrdb.TOLL_QUERY,
            {"now": 0, "xway": 0, "segment": 1, "direction": 0},
        )
        # The accident subquery is correlated on segmentStatistics.xway,
        # so it searches accident_by_road on both of its columns.
        assert plan == [
            f"SEARCH segmentStatistics USING INDEX {LR_KEY} "
            "(xway=? AND seg=? AND dir=?)",
            "CORRELATED SCALAR SUBQUERY 1",
            "  SEARCH ais USING INDEX accident_by_road "
            "(xway=? AND direction=?)",
        ]

    def test_accident_ahead_query_uses_accident_by_road(self, lr):
        assert lr.explain(lrdb.ACCIDENT_AHEAD_QUERY) == [
            "SEARCH ais USING INDEX accident_by_road (xway=? AND direction=?)"
        ]

    def test_segment_read_uses_the_primary_key(self, lr):
        assert lr.explain(lrdb.READ_SEGMENT_ROW) == [
            f"SEARCH segmentStatistics USING INDEX {LR_KEY} "
            "(xway=? AND seg=? AND dir=?)"
        ]

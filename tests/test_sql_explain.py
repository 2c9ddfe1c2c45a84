"""EXPLAIN-lite: the planner's access-path decisions are observable."""

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import QueryError


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


class TestExplain:
    def test_full_pk_equality_uses_pk_index(self, db):
        plan = db.explain(
            "SELECT lav FROM stats WHERE xway = 0 AND seg = 5 AND dir = 1"
        )
        assert plan == ["INDEX stats USING pk_stats(xway,seg,dir)"]

    def test_partial_pk_falls_back_to_scan(self, db):
        plan = db.explain("SELECT lav FROM stats WHERE xway = 0")
        assert plan == ["SCAN stats"]

    def test_secondary_index_selected(self, db):
        plan = db.explain("SELECT * FROM acc WHERE xway = $x", {"x": 0})
        assert plan == ["INDEX acc USING acc_by_xway(xway)"]

    def test_plan_does_not_depend_on_parameters(self, db):
        # explain() prints the plan execute() runs, with or without params.
        assert db.explain("SELECT lav FROM stats WHERE xway = $x AND "
                          "seg = $s AND dir = $d") == [
            "INDEX stats USING pk_stats(xway,seg,dir)"
        ]
        sql = "SELECT * FROM acc WHERE xway = $x"
        assert db.explain(sql) == ["INDEX acc USING acc_by_xway(xway)"]
        assert db.explain(sql, {}) == db.explain(sql, {"x": 0})

    def test_unhashable_key_parameter_names_the_parameter(self, db):
        with pytest.raises(QueryError, match=r"parameter \$x is not hashable"):
            db.execute("SELECT * FROM acc WHERE xway = $x", {"x": [1]})
        # Without an index on the column nothing is hashed.
        assert db.execute("SELECT * FROM acc WHERE seg = $x", {"x": [1]}).rows == []

    def test_inequality_not_indexable(self, db):
        plan = db.explain("SELECT * FROM acc WHERE xway > 1")
        assert plan == ["SCAN acc"]

    def test_hash_join_detected(self, db):
        plan = db.explain(
            "SELECT 1 FROM stats JOIN acc ON acc.seg = stats.seg"
        )
        assert plan[1].startswith("HASH INNER JOIN acc ON acc.seg")

    def test_nested_loop_for_non_equi(self, db):
        plan = db.explain(
            "SELECT 1 FROM stats JOIN acc ON acc.seg > stats.seg"
        )
        assert plan[1] == "NESTED LOOP INNER JOIN acc"

    def test_cross_join(self, db):
        plan = db.explain("SELECT 1 FROM stats, acc")
        assert plan == ["SCAN stats", "CROSS acc"]

    def test_constant_select(self, db):
        assert db.explain("SELECT 1") == ["CONSTANT"]

    def test_non_select_rejected(self, db):
        with pytest.raises(QueryError):
            db.explain("DELETE FROM acc")

    def test_toll_query_drives_through_pk(self, db):
        from repro.linearroad.db import (
            create_linear_road_database,
            TOLL_QUERY,
        )

        lr = create_linear_road_database()
        plan = lr.explain(
            TOLL_QUERY,
            {"now": 0, "xway": 0, "segment": 1, "direction": 0},
        )
        assert plan[0].startswith("INDEX segmentStatistics USING pk_")

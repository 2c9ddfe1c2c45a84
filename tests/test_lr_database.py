"""The Linear Road database: column types and checkpoint rows."""

import pickle
from pathlib import Path

import pytest

from repro.linearroad import db as lrdb
from repro.sqldb.errors import ConstraintError

DATA = Path(__file__).parent / "data"


def upsert(db, **overrides):
    row = {"xway": 0, "seg": 1, "dir": 0, "lav": 30.0, "cars": 60}
    db.execute(lrdb.UPSERT_SEGMENT_ROW, {**row, **overrides})


class TestStrictColumns:
    def test_mistyped_values_are_refused(self):
        db = lrdb.create_linear_road_database()
        with pytest.raises(ConstraintError, match="numOfCars"):
            upsert(db, cars="abc")
        with pytest.raises(ConstraintError, match="LAV"):
            upsert(db, lav="fast")
        with pytest.raises(ConstraintError, match="segment"):
            db.execute(lrdb.INSERT_ACCIDENT, {
                "xway": 0, "direction": 0, "segment": 2.5,
                "position": 0, "timestamp": 0,
            })
        assert db.execute("SELECT COUNT(*) FROM segmentStatistics").scalar() == 0

    def test_lossless_values_are_converted(self):
        db = lrdb.create_linear_road_database()
        upsert(db, lav=30, cars="61")
        row = db.execute(lrdb.READ_SEGMENT_ROW, {
            "xway": 0, "seg": 1, "dir": 0,
        }).rows[0]
        assert row == (30.0, 61) and isinstance(row[0], float)


class TestCheckpointRows:
    """``tests/data/pr25_lr_database.pkl`` is ``Database.state_dump()`` of
    a 360 s FIFO Linear Road run (one scripted accident, recorded three
    times) taken on the hand-written engine the database used to be."""

    @pytest.fixture
    def dump(self):
        with open(DATA / "pr25_lr_database.pkl", "rb") as handle:
            return pickle.load(handle)

    def test_an_older_dump_restores_row_for_row(self, dump):
        db = lrdb.create_linear_road_database()
        db.state_restore(dump)
        again = db.state_dump()
        assert set(again["tables"]) == set(dump["tables"])
        for name, table in dump["tables"].items():
            assert again["tables"][name]["rows"] == table["rows"], name
        assert len(again["tables"]["accidentInSegment"]["rows"]) >= 1

    def test_a_restored_database_answers_and_grows(self, dump):
        db = lrdb.create_linear_road_database()
        db.state_restore(dump)
        accidents = dump["tables"]["accidentInSegment"]["rows"]
        accident = accidents[max(accidents)]
        segments = db.execute(lrdb.ACCIDENT_AHEAD_QUERY, {
            "xway": accident["xway"], "direction": accident["direction"],
            "segment": accident["segment"], "now": accident["timestamp"],
        }).rows
        assert segments == [(accident["segment"],)] * len(accidents)
        db.execute(lrdb.INSERT_ACCIDENT, {**accident, "timestamp": 999})
        rows = db.state_dump()["tables"]["accidentInSegment"]["rows"]
        assert max(rows) == max(accidents) + 1

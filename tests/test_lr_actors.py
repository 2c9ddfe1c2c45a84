"""Unit tests for the individual Linear Road actors."""

import pytest

from repro.core.context import FiringContext
from repro.core.events import CWEvent
from repro.core.waves import WaveGenerator, WaveTag
from repro.core.windows import Window
from repro.linearroad import actors as lr
from repro.linearroad.db import create_linear_road_database
from repro.linearroad.types import (
    Accident,
    Lane,
    PositionReport,
    SegmentCrossing,
    SegmentStat,
    StoppedCar,
)
from tests.capture_routes import CaptureRoutes


def report(time=0, car=1, speed=50.0, seg=10, lane=Lane.TRAVEL_1, pos=None,
           xway=0, direction=0):
    position = pos if pos is not None else seg * 5280 + 100
    return PositionReport(
        time, car, speed, xway, int(lane), direction, seg, position
    )


def fire_with_window(actor, values, timestamps=None):
    """Fire *actor* with one staged window over the given payloads."""
    routes = CaptureRoutes(actor)
    ctx = FiringContext(actor, 0, routes, WaveGenerator())
    timestamps = timestamps or [i for i in range(len(values))]
    events = [
        CWEvent(value, ts, WaveTag.root(i + 1))
        for i, (value, ts) in enumerate(zip(values, timestamps))
    ]
    ctx.stage("in", Window(events))
    actor.fire(ctx)
    ctx.close()
    return routes.values()


def fire_with_event(actor, value, port="in", ts=0):
    routes = CaptureRoutes(actor)
    ctx = FiringContext(actor, 0, routes, WaveGenerator())
    ctx.stage(port, CWEvent(value, ts, WaveTag.root(1)))
    actor.fire(ctx)
    ctx.close()
    return routes.values()


class TestStoppedCarDetector:
    def test_four_identical_reports_detected(self):
        actor = lr.StoppedCarDetector()
        reports = [report(time=t, pos=5000) for t in (0, 30, 60, 90)]
        out = fire_with_window(actor, reports)
        assert len(out) == 1
        assert isinstance(out[0], StoppedCar)
        assert out[0].report == reports[0]
        assert out[0].detected_at == 90

    def test_moving_car_not_detected(self):
        actor = lr.StoppedCarDetector()
        reports = [report(time=t, pos=5000 + t) for t in (0, 30, 60, 90)]
        assert fire_with_window(actor, reports) == []

    def test_window_spec_matches_paper(self):
        spec = lr.StoppedCarDetector().input("in").window
        assert spec.size == 4 and spec.step == 1


class TestAccidentDetector:
    def test_two_distinct_stopped_cars_is_accident(self):
        actor = lr.AccidentDetector()
        stopped = [
            StoppedCar(report(car=1, pos=5000), 90),
            StoppedCar(report(car=2, pos=5000), 120),
        ]
        out = fire_with_window(actor, stopped)
        assert len(out) == 1
        accident = out[0]
        assert isinstance(accident, Accident)
        assert accident.car_ids == (1, 2)
        assert accident.time == 120  # newest detection time

    def test_same_car_twice_is_not_accident(self):
        actor = lr.AccidentDetector()
        stopped = [
            StoppedCar(report(car=1, pos=5000), 90),
            StoppedCar(report(car=1, pos=5000), 120),
        ]
        assert fire_with_window(actor, stopped) == []

    def test_exit_lane_excluded(self):
        actor = lr.AccidentDetector()
        stopped = [
            StoppedCar(report(car=1, pos=5000, lane=Lane.EXIT), 90),
            StoppedCar(report(car=2, pos=5000, lane=Lane.EXIT), 120),
        ]
        assert fire_with_window(actor, stopped) == []


class TestAccidentRecorder:
    def test_inserts_into_database(self):
        db = create_linear_road_database()
        actor = lr.AccidentRecorder(db)
        accident = Accident(0, 0, 10, 53000, 100, (1, 2))
        fire_with_event(actor, accident)
        rows = db.execute("SELECT * FROM accidentInSegment").rows
        assert len(rows) == 1
        assert actor.inserted == 1

    def test_refresh_suppresses_rapid_reinsert(self):
        db = create_linear_road_database()
        actor = lr.AccidentRecorder(db, refresh_s=20)
        fire_with_event(actor, Accident(0, 0, 10, 53000, 100, (1, 2)))
        fire_with_event(actor, Accident(0, 0, 10, 53000, 110, (1, 2)))
        assert actor.inserted == 1
        fire_with_event(actor, Accident(0, 0, 10, 53000, 130, (1, 2)))
        assert actor.inserted == 2


class TestAccidentNotifier:
    def make_db_with_accident(self, seg=10, ts=100):
        db = create_linear_road_database()
        db.execute(
            "INSERT INTO accidentInSegment VALUES (0, 0, $s, 53000, $t)",
            {"s": seg, "t": ts},
        )
        return db

    def test_car_approaching_gets_alert(self):
        db = self.make_db_with_accident(seg=10, ts=100)
        actor = lr.AccidentNotifier(db)
        out = fire_with_event(actor, report(time=110, car=5, seg=8))
        assert len(out) == 1
        assert out[0].accident_segment == 10

    def test_car_past_accident_not_alerted(self):
        db = self.make_db_with_accident(seg=10, ts=100)
        actor = lr.AccidentNotifier(db)
        assert fire_with_event(actor, report(time=110, seg=12)) == []

    def test_stale_accident_ignored(self):
        db = self.make_db_with_accident(seg=10, ts=10)
        actor = lr.AccidentNotifier(db)
        assert fire_with_event(actor, report(time=200, seg=8)) == []

    def test_exit_lane_car_not_alerted(self):
        db = self.make_db_with_accident(seg=10, ts=100)
        actor = lr.AccidentNotifier(db)
        out = fire_with_event(
            actor, report(time=110, seg=8, lane=Lane.EXIT)
        )
        assert out == []

    def test_duplicate_alerts_suppressed_per_car(self):
        db = self.make_db_with_accident(seg=10, ts=100)
        actor = lr.AccidentNotifier(db)
        fire_with_event(actor, report(time=110, car=5, seg=8))
        out = fire_with_event(actor, report(time=140, car=5, seg=9))
        assert out == []


class TestSegmentStatistics:
    def test_avgsv_averages_speeds(self):
        actor = lr.AvgSv()
        reports = [report(time=t, speed=s) for t, s in [(0, 40), (30, 60)]]
        out = fire_with_window(actor, reports, timestamps=[0, 30_000_000])
        assert len(out) == 1
        assert out[0].value == 50.0

    def test_avgs_builds_lav_over_five_minutes(self):
        actor = lr.AvgS()
        for minute, speed in enumerate([60, 50, 40, 30, 20, 10]):
            out = fire_with_window(
                actor,
                [SegmentStat(0, 0, 10, minute, float(speed))],
                timestamps=[minute * 60_000_000],
            )
        # After 6 minutes, LAV = mean of last five minute-averages.
        assert out[0].value == pytest.approx((50 + 40 + 30 + 20 + 10) / 5)

    def test_carcounter_counts_distinct(self):
        actor = lr.CarCounter()
        reports = [report(car=1), report(car=2), report(car=1)]
        out = fire_with_window(actor, reports)
        assert out[0].value == 2.0

    def test_stats_writer_merges_lav_and_cars(self):
        db = create_linear_road_database()
        actor = lr.SegmentStatsWriter(db)
        fire_with_event(actor, SegmentStat(0, 0, 10, 1, 35.0), port="lav")
        fire_with_event(actor, SegmentStat(0, 0, 10, 1, 60.0), port="cars")
        row = db.execute(
            "SELECT LAV, numOfCars FROM segmentStatistics "
            "WHERE xway = 0 AND seg = 10 AND dir = 0"
        ).first()
        assert row == {"LAV": 35.0, "numOfCars": 60}


class TestTollPath:
    def test_crossing_detected(self):
        actor = lr.SegmentCrossingDetector()
        out = fire_with_window(
            actor, [report(time=0, seg=10), report(time=30, seg=11)]
        )
        assert len(out) == 1
        assert isinstance(out[0], SegmentCrossing)
        assert out[0].previous_segment == 10

    def test_same_segment_no_crossing(self):
        actor = lr.SegmentCrossingDetector()
        out = fire_with_window(
            actor, [report(time=0, seg=10), report(time=30, seg=10)]
        )
        assert out == []

    def test_exit_lane_crossing_ignored(self):
        actor = lr.SegmentCrossingDetector()
        out = fire_with_window(
            actor,
            [report(time=0, seg=10),
             report(time=30, seg=11, lane=Lane.EXIT)],
        )
        assert out == []

    def toll_db(self, lav, cars):
        db = create_linear_road_database()
        db.execute(
            "INSERT INTO segmentStatistics VALUES (0, 11, 0, $lav, $cars)",
            {"lav": lav, "cars": cars},
        )
        return db

    def test_congested_segment_charges_formula(self):
        db = self.toll_db(lav=30.0, cars=60)
        actor = lr.TollCalculator(db)
        crossing = SegmentCrossing(report(time=100, seg=11), 10)
        out = fire_with_event(actor, crossing)
        assert out[0].toll == 2 * (60 - 50) ** 2

    def test_fast_segment_is_free(self):
        db = self.toll_db(lav=55.0, cars=60)
        actor = lr.TollCalculator(db)
        out = fire_with_event(
            actor, SegmentCrossing(report(time=100, seg=11), 10)
        )
        assert out[0].toll == 0

    def test_fresh_accident_waives_toll(self):
        db = self.toll_db(lav=30.0, cars=60)
        db.execute(
            "INSERT INTO accidentInSegment VALUES (0, 0, 13, 999, 90)"
        )
        actor = lr.TollCalculator(db)
        out = fire_with_event(
            actor, SegmentCrossing(report(time=100, seg=11), 10)
        )
        assert out[0].toll == 0

    def test_accident_on_another_expressway_keeps_the_toll(self):
        db = self.toll_db(lav=30.0, cars=60)
        db.execute(
            "INSERT INTO accidentInSegment VALUES (3, 0, 11, 999, 90)"
        )
        actor = lr.TollCalculator(db)
        out = fire_with_event(
            actor, SegmentCrossing(report(time=100, seg=11), 10)
        )
        assert out[0].toll == 2 * (60 - 50) ** 2

    def test_unknown_segment_tolls_zero(self):
        db = create_linear_road_database()
        actor = lr.TollCalculator(db)
        out = fire_with_event(
            actor, SegmentCrossing(report(time=100, seg=11), 10)
        )
        assert out[0].toll == 0.0
        assert out[0].lav is None

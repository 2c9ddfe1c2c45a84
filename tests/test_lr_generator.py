"""The Linear Road workload generator: schema, envelope, accidents."""

import hashlib
import pickle
from dataclasses import astuple, fields, replace

import pytest

from repro.linearroad.generator import (
    AccidentScript,
    LinearRoadWorkload,
    WorkloadConfig,
)
from repro.linearroad.types import (
    Lane,
    PositionReport,
    REPORT_INTERVAL_S,
    SEGMENTS_PER_XWAY,
)
from tests.retained_bytes import retained_bytes


@pytest.fixture(scope="module")
def workload():
    return LinearRoadWorkload(
        WorkloadConfig(duration_s=300, peak_rate=40, seed=3)
    )


class TestSchema:
    def test_reports_sorted_by_time(self, workload):
        times = [r.time for r in workload.reports()]
        assert times == sorted(times)

    def test_fields_within_domain(self, workload):
        for report in workload.reports():
            assert 0 <= report.segment < SEGMENTS_PER_XWAY
            assert report.speed >= 0
            assert report.lane in tuple(Lane)
            assert report.time < 300
            assert report.xway == 0

    def test_cars_report_every_30_seconds(self, workload):
        by_car = {}
        for report in workload.reports():
            by_car.setdefault(report.car_id, []).append(report.time)
        for times in by_car.values():
            gaps = {b - a for a, b in zip(times, times[1:])}
            assert gaps <= {REPORT_INTERVAL_S}

    def test_segment_consistent_with_position(self, workload):
        for report in workload.reports():
            assert report.segment == (report.position // 5280) % 100


class TestEnvelope:
    def test_rate_ramps_linearly(self, workload):
        series = workload.rate_series(bucket_s=30)
        rates = [rate for _, rate in series]
        # Monotone-ish ramp toward the peak.
        assert rates[-1] > rates[len(rates) // 2] > rates[0]
        assert rates[-1] == pytest.approx(40, rel=0.2)

    def test_total_report_count_matches_integral(self, workload):
        # Ramp 0 -> 40/s over 300 s integrates to ~6000 reports.
        assert len(workload.reports()) == pytest.approx(6000, rel=0.15)

    def test_scaled_config(self):
        config = WorkloadConfig(duration_s=100, peak_rate=10).scaled(2.0)
        assert config.peak_rate == 20

    def test_scaled_keeps_every_other_field(self):
        config = WorkloadConfig(
            l_rating=2.0,
            duration_s=321,
            peak_rate=10.0,
            ramp_fraction=0.5,
            seed=9,
            direction=1,
            xway=3,
            accidents=(AccidentScript(at_s=30, clear_s=200, segment=7),),
            congestion_segments=(4, 5),
            congestion_share=0.25,
            burst_factor=2.5,
            burst_period_s=7,
            disorder_s=1.5,
        )
        defaults = WorkloadConfig()
        for field in fields(WorkloadConfig):
            # A field left at its default would not show a lost copy.
            assert getattr(config, field.name) != getattr(
                defaults, field.name
            ), field.name
        scaled = config.scaled(3.0)
        assert scaled.peak_rate == 30.0
        assert replace(scaled, peak_rate=config.peak_rate) == config

    def test_determinism_per_seed(self):
        a = LinearRoadWorkload(WorkloadConfig(duration_s=60, peak_rate=10, seed=5))
        b = LinearRoadWorkload(WorkloadConfig(duration_s=60, peak_rate=10, seed=5))
        assert a.reports() == b.reports()

    def test_seeds_differ(self):
        a = LinearRoadWorkload(WorkloadConfig(duration_s=60, peak_rate=10, seed=5))
        b = LinearRoadWorkload(WorkloadConfig(duration_s=60, peak_rate=10, seed=6))
        assert a.reports() != b.reports()

    def test_arrivals_in_microseconds(self, workload):
        arrivals = workload.arrivals()
        assert arrivals[0][0] < arrivals[-1][0]
        report = arrivals[0][1]
        assert arrivals[0][0] // 1_000_000 == report.time


class TestAccidents:
    def test_scripted_accident_creates_identical_reports(self):
        workload = LinearRoadWorkload(
            WorkloadConfig(
                duration_s=400,
                peak_rate=20,
                seed=1,
                accidents=(AccidentScript(at_s=100, clear_s=280, segment=30),),
            )
        )
        stopped = {}
        for report in workload.reports():
            if report.speed == 0:
                stopped.setdefault(report.car_id, []).append(report)
        # Two cars halted at the same spot.
        assert len(stopped) == 2
        spots = {
            reports[0].spot for reports in stopped.values()
        }
        assert len(spots) == 1
        for reports in stopped.values():
            assert len(reports) >= 4

    def test_unviable_script_skipped(self):
        workload = LinearRoadWorkload(
            WorkloadConfig(
                duration_s=120,
                peak_rate=20,
                accidents=(AccidentScript(at_s=110, clear_s=300, segment=30),),
            )
        )
        assert all(report.speed > 0 for report in workload.reports())

    def test_cars_resume_after_clear(self):
        workload = LinearRoadWorkload(
            WorkloadConfig(
                duration_s=500,
                peak_rate=20,
                seed=1,
                accidents=(AccidentScript(at_s=100, clear_s=250, segment=30),),
            )
        )
        crashed = {
            report.car_id
            for report in workload.reports()
            if report.speed == 0
        }
        for car in crashed:
            later = [
                r
                for r in workload.reports()
                if r.car_id == car and r.time >= 280
            ]
            assert later and all(r.speed > 0 for r in later)


#: Workload shapes whose traces are pinned byte for byte: the lr_batch
#: benchmark shape, the four-expressway shape, both directions on two
#: expressways with congestion and scripted accidents, and the burst and
#: disorder arrival warps.
GOLDEN_CONFIGS = {
    "lr_batch": dict(duration_s=140, peak_rate=240.0),
    "xway4": dict(l_rating=4.0, duration_s=240, peak_rate=80.0),
    "congestion_l2": dict(
        l_rating=2.0,
        duration_s=600,
        peak_rate=60.0,
        congestion_segments=(30, 31),
        congestion_share=0.4,
    ),
    "burst3": dict(duration_s=140, peak_rate=120.0, burst_factor=3.0),
    "disorder3": dict(duration_s=140, peak_rate=120.0, disorder_s=3.0),
}

#: sha256 of ``repr(arrivals())`` per (shape, seed).  A change here
#: changes every seeded figure and sink digest: it is a new trace, not a
#: refactor.
GOLDEN_DIGESTS = {
    ("lr_batch", 1): "b570df86ec82342e5ed0a8b28951f1237d2d5435a3e65eb19f2b4412c124dc9e",
    ("lr_batch", 2): "2d90181c0240f3906df26e3418612a65289b90c3c509b74f4f92ba4bd07d02a5",
    ("xway4", 1): "10f00e228a6f26d200e7c4e7dfcc0226d3f0fbce5dce64eb1080eca3adcaeb3b",
    ("xway4", 2): "d2e3f03e071a76edd85093fb48ae0da82fa193f12f983a13876a87ff83280b82",
    ("congestion_l2", 1): "97155c996edd5b7f870025b13997bf48c4ad652782e402a6c9a44384ade1275a",
    ("congestion_l2", 2): "5940e2819ceab03e18bd7ae76c33850208379689a73fa0b841bb51c1a4ede8cd",
    ("burst3", 1): "658f61af902b811c3e699a067e1380e37fc707b5980b4920084808bdb8338506",
    ("burst3", 2): "97b7d607a2c3ccc8a21c1af23180028ff7fda69ca564df0bd150ba43a5a19050",
    ("disorder3", 1): "e1f509113c3e6fa16bc9fc065244f8e0736bc6b19a4d43f3db4a4b3ce8e60174",
    ("disorder3", 2): "4edfbcf3709b56b0d6cdf7316f16d7b73b9ffd06ec8543b70f1dfca702f4fe52",
}


def _golden_workload(name, seed):
    return LinearRoadWorkload(
        WorkloadConfig(seed=seed, **GOLDEN_CONFIGS[name])
    )


class TestGoldenTraces:
    @pytest.mark.parametrize("name, seed", sorted(GOLDEN_DIGESTS))
    def test_arrivals_match_recorded_digest(self, name, seed):
        arrivals = _golden_workload(name, seed).arrivals()
        digest = hashlib.sha256(repr(arrivals).encode()).hexdigest()
        assert digest == GOLDEN_DIGESTS[name, seed]

    def test_golden_shapes_exercise_accidents_and_both_directions(self):
        reports = _golden_workload("congestion_l2", 1).reports()
        assert any(report.speed == 0.0 for report in reports)
        assert {report.direction for report in reports} == {0, 1}
        assert {report.xway for report in reports} == {0, 1}

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_field_types_are_exact(self, name):
        # An IntEnum lane compares equal but changes repr, and the shard
        # merge key compares ``repr``.
        exact = (int, int, float, int, int, int, int, int)  # field order
        for report in _golden_workload(name, 1).reports():
            assert tuple(map(type, astuple(report))) == exact


class TestReportMemory:
    def test_generated_reports_are_no_larger_than_constructed(self):
        config = WorkloadConfig(duration_s=140, peak_rate=60.0, seed=1)
        LinearRoadWorkload(config).reports()  # warm every code path

        def generated():
            return LinearRoadWorkload(config).reports()

        def constructed():
            # The same list object and field values, each report rebuilt
            # by the dataclass constructor.
            reports = generated()
            reports[:] = [
                PositionReport(*astuple(report)) for report in reports
            ]
            return reports

        # A dict per report would add ~180 B each; 8 B a report absorbs
        # what other threads of the test process allocate meanwhile.
        count = len(generated())
        assert retained_bytes(generated) <= (
            retained_bytes(constructed) + 8 * count
        )

    def test_unpickled_reports_are_no_larger_than_constructed(self):
        # Checkpoint restores and shard chunks bring reports back through
        # ``pickle.loads``; that must not give each one a ``__dict__``.
        reports = [
            PositionReport(index // 100, index, 50.0 + index % 7, 0, 1, 0,
                           index % 100, 5280 * index)
            for index in range(10_000)
        ]
        blob = pickle.dumps(reports, protocol=5)
        pickle.loads(blob)  # warm every code path

        def unpickled():
            return pickle.loads(blob)

        def constructed():
            # The same list object and field values, each report rebuilt
            # by the dataclass constructor.
            rebuilt = unpickled()
            rebuilt[:] = [
                PositionReport(*astuple(report)) for report in rebuilt
            ]
            return rebuilt

        assert retained_bytes(unpickled) <= (
            retained_bytes(constructed) + 8 * len(reports)
        )


#: ``pickle.dumps(PositionReport(3, 7, 55.5, 0, 1, 0, 4, 21_500),
#: protocol=5)`` as written before reports pickled through
#: ``types.new_report``: the default state-dict form, which checkpoint
#: snapshots taken then still hold.
DICT_STATE_REPORT_PICKLE = (
    b"\x80\x05\x95\x94\x00\x00\x00\x00\x00\x00\x00\x8c\x16"
    b"repro.linearroad.types\x94\x8c\x0ePositionReport\x94\x93\x94)"
    b"\x81\x94}\x94(\x8c\x04time\x94K\x03\x8c\x06car_id\x94K\x07"
    b"\x8c\x05speed\x94G@K\xc0\x00\x00\x00\x00\x00\x8c\x04xway"
    b"\x94K\x00\x8c\x04lane\x94K\x01\x8c\tdirection\x94K\x00\x8c"
    b"\x07segment\x94K\x04\x8c\x08position\x94M\xfcSub."
)


class TestReportPickles:
    def test_dict_state_pickles_still_load(self):
        expected = PositionReport(3, 7, 55.5, 0, 1, 0, 4, 21_500)
        loaded = pickle.loads(DICT_STATE_REPORT_PICKLE)
        assert loaded == expected
        assert repr(loaded) == repr(expected)

    def test_reports_pickle_through_new_report(self):
        report = PositionReport(3, 7, 55.5, 0, 1, 0, 4, 21_500)
        payload = pickle.dumps(report, protocol=5)
        assert b"new_report" in payload and b"car_id" not in payload
        assert len(payload) < len(DICT_STATE_REPORT_PICKLE)
        loaded = pickle.loads(payload)
        assert loaded == report and repr(loaded) == repr(report)

"""The Linear Road workload generator.

The paper used the MIT/Brandeis traffic simulator's pre-generated traces
("0.5 expressways", Figure 5).  Offline, we generate an equivalent
deterministic synthetic trace with the same schema and the same load
envelope:

* cars enter the (single, L=0.5) expressway at a constant rate, so the
  aggregate report rate — each car reports every 30 s — ramps linearly
  from 0 to ``peak_rate`` reports/s over the scenario (Figure 5 ramps to
  ≈200 reports/s at 600 s);
* every car drives at a per-car cruising speed with small per-report
  jitter, crossing segments as its absolute position advances;
* scripted *accidents*: at scheduled times, two cars halt at the same spot
  in a travel lane for several minutes (producing the ≥4 identical reports
  the detector needs), then clear and resume.

Everything derives from one seed, so "three runs" in the harness are three
seeds and every figure is bit-reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import chain
from typing import Optional

from ..core.timekeeper import US_PER_S
from .types import (
    Lane,
    new_report,
    PositionReport,
    REPORT_INTERVAL_S,
    SEGMENT_LENGTH_FT,
    SEGMENTS_PER_XWAY,
)

MPH_TO_FTPS = 5280.0 / 3600.0
#: Length of one expressway direction; positions wrap around it.
_ROAD_LENGTH_FT = SEGMENTS_PER_XWAY * SEGMENT_LENGTH_FT
#: The lanes a car cruises in (drawn once per car, in this order).
_TRAVEL_LANES = (int(Lane.TRAVEL_1), int(Lane.TRAVEL_2), int(Lane.TRAVEL_3))


@dataclass(frozen=True)
class AccidentScript:
    """A scripted incident: two cars stop at one spot for a while."""

    at_s: int  # when the cars halt
    clear_s: int  # when they resume
    segment: int
    lane: int = Lane.TRAVEL_2


@dataclass
class WorkloadConfig:
    """Knobs of the synthetic Linear Road workload."""

    l_rating: float = 0.5
    duration_s: int = 600
    #: Aggregate report rate reached at the end of the ramp (reports/s).
    peak_rate: float = 200.0
    #: Fraction of the duration spent ramping up (1.0 = ramp to the end).
    ramp_fraction: float = 1.0
    seed: int = 1
    direction: int = 0
    xway: int = 0
    accidents: tuple[AccidentScript, ...] = (
        AccidentScript(at_s=120, clear_s=300, segment=40),
        AccidentScript(at_s=260, clear_s=420, segment=70),
        AccidentScript(at_s=400, clear_s=560, segment=25),
    )
    #: Segments where slow commuter traffic concentrates (congestion —
    #: the precondition of non-zero tolls: > 50 cars and LAV < 40 mph).
    congestion_segments: tuple[int, ...] = ()
    #: Fraction of cars routed into the congested segments.
    congestion_share: float = 0.0
    #: Bursty-arrival mode: > 1 compresses each ``burst_period_s`` window
    #: of *arrival* times into its first ``1/burst_factor`` — the same
    #: reports (bit-identical trace), delivered in periodic bursts whose
    #: instantaneous rate is ``burst_factor``× the mean.  1.0 (default)
    #: leaves arrival times untouched, byte for byte.
    burst_factor: float = 1.0
    #: Length of one burst cycle in seconds (bursty mode only).
    burst_period_s: int = 10
    #: Out-of-order mode: > 0 delays each report's *delivery* by a seeded
    #: uniform jitter in ``[0, disorder_s]`` while keeping the report's
    #: event timestamp — the same reports (bit-identical trace), arriving
    #: shuffled within the disorder bound.  0.0 (default) leaves the
    #: arrival schedule untouched, byte for byte.
    disorder_s: float = 0.0

    def __post_init__(self) -> None:
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1.0")
        if self.burst_period_s < 1:
            raise ValueError("burst_period_s must be >= 1")
        if self.disorder_s < 0.0:
            raise ValueError("disorder_s must be >= 0.0")

    def scaled(self, rate_factor: float) -> "WorkloadConfig":
        """A copy with the load envelope scaled (sensitivity sweeps)."""
        return replace(self, peak_rate=self.peak_rate * rate_factor)


#: One car as drawn: ``(car_id, entry_s, speed_mph, position_ft,
#: direction, xway)`` — a plain tuple, built once per car.
_Car = tuple[int, float, float, float, int, int]


class LinearRoadWorkload:
    """Generates the full, time-sorted position-report trace."""

    def __init__(self, config: Optional[WorkloadConfig] = None):
        self.config = config or WorkloadConfig()
        self._reports: Optional[list[PositionReport]] = None

    # ------------------------------------------------------------------
    def reports(self) -> list[PositionReport]:
        """The complete trace, generated once and cached."""
        if self._reports is None:
            self._reports = self._generate()
        return self._reports

    def arrivals(self) -> list[tuple]:
        """(arrival_us, report) pairs for a :class:`SourceActor`.

        With ``burst_factor > 1`` the arrival times (never the report
        payloads) are warped: each ``burst_period_s`` window is
        compressed into its head, so the mean rate is unchanged while
        the instantaneous rate spikes to ``burst_factor``× — a seeded,
        reproducible overload scenario.  The warp is monotone, so the
        trace stays time-sorted.

        With ``disorder_s > 0`` each report instead becomes a triple
        ``(delivery_us, report, event_ts_us)``: the event timestamp is
        the (possibly burst-warped) arrival time, and delivery is
        delayed by a seeded uniform jitter in ``[0, disorder_s]``,
        capped at the scenario horizon.  The list is sorted by delivery
        time, so consecutive entries carry out-of-order event
        timestamps — bounded by the disorder — for an
        ``out_of_order`` :class:`~repro.core.actors.SourceActor`.
        """
        pairs = [
            (report.time * US_PER_S + index % 1000, report)
            for index, report in enumerate(self.reports())
        ]
        factor = self.config.burst_factor
        if factor != 1.0:
            period_us = self.config.burst_period_s * US_PER_S
            warped = []
            for arrival_us, report in pairs:
                start = (arrival_us // period_us) * period_us
                warped.append(
                    (start + int((arrival_us - start) / factor), report)
                )
            pairs = warped
        disorder_us = int(self.config.disorder_s * US_PER_S)
        if disorder_us == 0:
            return pairs
        # Delivery jitter draws from a dedicated stream so the report
        # trace itself stays bit-identical to the in-order run.
        rng = random.Random(f"{self.config.seed}:disorder")
        horizon_us = self.config.duration_s * US_PER_S - 1
        entries = []
        for index, (event_us, report) in enumerate(pairs):
            delivery = min(event_us + rng.randint(0, disorder_us), horizon_us)
            entries.append((delivery, index, event_us, report))
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        return [
            (delivery, report, event_us)
            for delivery, _, event_us, report in entries
        ]

    def rate_series(self, bucket_s: int = 10) -> list[tuple[int, float]]:
        """(bucket_start_s, reports_per_second) — regenerates Figure 5."""
        counts: dict[int, int] = {}
        for report in self.reports():
            counts[report.time // bucket_s] = (
                counts.get(report.time // bucket_s, 0) + 1
            )
        return [
            (bucket * bucket_s, counts.get(bucket, 0) / bucket_s)
            for bucket in range(self.config.duration_s // bucket_s)
        ]

    # ------------------------------------------------------------------
    def _generate(self) -> list[PositionReport]:
        """The trace, in ``(time, car_id)`` order.

        The draw order is the trace's contract (DESIGN.md): per car, in
        ``car_id`` order, entry jitter, congestion coin (only with
        congestion segments), speed, start segment, start offset,
        direction (``L >= 1``), expressway (``L >= 2``); then per car,
        again in ``car_id`` order, its lane and one speed jitter per
        report outside a scripted crash.
        """
        config = self.config
        rng = random.Random(config.seed)
        draw = rng.random
        randrange = rng.randrange
        # Steady car inflow: each car contributes 1/30 reports/s, so to
        # ramp to peak_rate at the end of the ramp we admit
        # peak_rate*30 cars spread uniformly over the ramp.
        ramp_s = max(config.duration_s * config.ramp_fraction, 1.0)
        total_cars = int(config.peak_rate * REPORT_INTERVAL_S)
        congestion = config.congestion_segments
        share = config.congestion_share
        # L-rating semantics: L=0.5 is one direction, L>=1 uses both;
        # cars spread over int(L) expressways for L>=2.
        both_directions = config.l_rating >= 1.0
        expressways = max(1, int(config.l_rating))
        cars: list[_Car] = []
        for car_id in range(total_cars):
            entry = (car_id + draw()) * ramp_s / total_cars
            # ``a + (b - a) * random()`` is ``rng.uniform(a, b)``.
            if congestion and draw() < share:
                speed = 18.0 + 14.0 * draw()  # crawling: LAV < 40
                start_seg = rng.choice(congestion)
            else:
                speed = 45.0 + 20.0 * draw()
                start_seg = randrange(SEGMENTS_PER_XWAY)
            start_pos = start_seg * SEGMENT_LENGTH_FT + randrange(
                SEGMENT_LENGTH_FT
            )
            direction = randrange(2) if both_directions else config.direction
            xway = randrange(expressways) if expressways > 1 else config.xway
            cars.append(
                (car_id, entry, speed, float(start_pos), direction, xway)
            )

        crash_pairs = self._assign_accident_cars(cars)
        # One bucket per second: cars are driven in car_id order, so each
        # bucket fills in (time, car_id) order and needs no sort.
        buckets: list[list[PositionReport]] = [
            [] for _ in range(config.duration_s)
        ]
        for car in cars:
            self._drive(car, crash_pairs.get(car[0]), rng, buckets)
        return list(chain.from_iterable(buckets))

    def _assign_accident_cars(
        self, cars: list[_Car]
    ) -> dict[int, AccidentScript]:
        """Pick two already-entered cars per scripted accident.

        A script is viable only when at least four 30-second reports fit
        between its start and the scenario horizon (the stopped-car
        detector needs four identical reports).
        """
        assignment: dict[int, AccidentScript] = {}
        horizon = self.config.duration_s
        for script in self.config.accidents:
            crash_end = min(script.clear_s, horizon)
            if crash_end - script.at_s < REPORT_INTERVAL_S * 4 + 1:
                continue
            picked = 0
            for car_id, entry_s, *_ in cars:
                if car_id in assignment:
                    continue
                if entry_s + REPORT_INTERVAL_S < script.at_s:
                    assignment[car_id] = script
                    picked += 1
                    if picked == 2:
                        break
        return assignment

    def _drive(
        self,
        car: _Car,
        script: Optional[AccidentScript],
        rng: random.Random,
        buckets: list[list[PositionReport]],
    ) -> None:
        """Add one car's reports, entry to horizon, to their seconds."""
        draw = rng.random
        car_id, entry_s, cruise_mph, position, direction, xway = car
        lane = rng.choice(_TRAVEL_LANES)
        if script is None:
            crash_from = crash_until = 0  # no report time is in [0, 0)
        else:
            crash_from, crash_until = script.at_s, script.clear_s
            # Both halves of the collision must share a roadway.
            direction = self.config.direction
            xway = self.config.xway
            # The car sits at the scripted spot with speed 0.
            crash_position = float(
                script.segment * SEGMENT_LENGTH_FT + SEGMENT_LENGTH_FT // 2
            )
            crash_lane = int(script.lane)
        first = int(entry_s) + 1
        elapsed = first - entry_s
        for time in range(first, self.config.duration_s, REPORT_INTERVAL_S):
            if crash_from <= time < crash_until:
                position = crash_position
                speed = 0.0
                report_lane = crash_lane
            else:
                # ``-3.0 + 6.0 * random()`` is ``rng.uniform(-3.0, 3.0)``.
                speed = cruise_mph + (-3.0 + 6.0 * draw())
                if speed < 5.0:
                    speed = 5.0
                position += speed * MPH_TO_FTPS * elapsed
                report_lane = lane
            # Wrapped onto one road length, so the segment is < 100.
            wrapped = int(position) % _ROAD_LENGTH_FT
            buckets[time].append(
                new_report(
                    time,
                    car_id,
                    round(speed, 1),
                    xway,
                    report_lane,
                    direction,
                    wrapped // SEGMENT_LENGTH_FT,
                    wrapped,
                )
            )
            elapsed = REPORT_INTERVAL_S

"""The actors of the continuous-workflow Linear Road implementation.

Appendix A of the paper divides the workflow into three areas — accident
detection/notification, segment statistics, and toll calculation /
notification — built from windowed actors:

=====================  =====================================================
Actor                  Window semantics (paper Appendix A)
=====================  =====================================================
StoppedCarDetector     {Size: 4 tokens, Step: 1, Group-by: car ID}
AccidentDetector       {Size: 2 tokens, Step: 1, Group-by: position}
AccidentNotifier       per position report (plain queue), DB lookup
AvgSv                  {Size: 1 min, Step: 1 min, Group-by: car+xway+dir+seg}
AvgS                   {Size: 1 min, Step: 1 min, Group-by: xway+dir+seg}
CarCounter             {Size: 1 min, Step: 1 min, Group-by: xway+dir+seg}
SegmentCrossing        {Size: 2 tokens, Step: 1, Group-by: car ID}
TollCalculator         per crossing, DB query (Appendix A.3, verbatim)
=====================  =====================================================

``nominal_cost_us`` values calibrate the virtual cost model: DB-touching
actors are the expensive ones, as in the paper's off-the-shelf-actor
implementation.
"""

from __future__ import annotations

from collections import deque

from . import db as lrdb
from ..core.actors import Actor, SinkActor, SourceActor
from ..core.context import FiringContext
from ..core.timekeeper import US_PER_S
from ..core.windows import WindowSpec
from ..sqldb import Database
from .types import (
    Accident,
    AccidentAlert,
    Lane,
    LAV_WINDOW_MINUTES,
    PositionReport,
    SegmentCrossing,
    SegmentStat,
    STOPPED_REPORT_COUNT,
    StoppedCar,
    TollNotification,
)

MINUTE_US = 60 * US_PER_S
#: Timed windows are force-closed this long after their right boundary
#: when the stream goes quiet (window_formation_timeout).
WINDOW_TIMEOUT_US = 5 * US_PER_S


class CarPositionSource(SourceActor):
    """Pushes the position-report feed into the workflow."""

    def __init__(
        self,
        name: str = "CarPositionReports",
        arrivals=None,
        out_of_order: bool = False,
        disorder_us: int = 0,
    ):
        super().__init__(
            name,
            arrivals,
            out_of_order=out_of_order,
            disorder_us=disorder_us,
        )
        self.add_output("reports")
        self.nominal_cost_us = 20


class StoppedCarDetector(Actor):
    """Figure 11: a car reporting the same spot 4 times in a row stopped."""

    def __init__(self, name: str = "StoppedCarDetector"):
        super().__init__(name)
        self.add_input(
            "in",
            WindowSpec.tokens(
                STOPPED_REPORT_COUNT,
                1,
                group_by=lambda event: event.value.car_id,
            ),
        )
        self.add_output("out")
        self.priority = 10
        self.nominal_cost_us = 700

    def fire(self, ctx: FiringContext) -> None:
        window = ctx.read("in")
        if window is None or len(window) < STOPPED_REPORT_COUNT:
            return
        reports: list[PositionReport] = window.values
        first = reports[0]
        if all(report.spot == first.spot for report in reports[1:]):
            ctx.send("out", StoppedCar(first, reports[-1].time))


class AccidentDetector(Actor):
    """Figure 12: two distinct stopped cars at one spot, not in an exit."""

    def __init__(self, name: str = "AccidentDetector"):
        super().__init__(name)
        self.add_input(
            "in",
            WindowSpec.tokens(
                2,
                1,
                group_by=lambda event: event.value.report.spot,
            ),
        )
        self.add_output("out")
        self.priority = 10
        self.nominal_cost_us = 300

    def fire(self, ctx: FiringContext) -> None:
        window = ctx.read("in")
        if window is None or len(window) < 2:
            return
        first, second = window.values
        report_a, report_b = first.report, second.report
        if report_a.car_id == report_b.car_id:
            return
        if report_a.lane == Lane.EXIT or report_b.lane == Lane.EXIT:
            return
        newest_time = max(first.detected_at, second.detected_at)
        ctx.send(
            "out",
            Accident(
                report_a.xway,
                report_a.direction,
                report_a.segment,
                report_a.position,
                newest_time,
                (report_a.car_id, report_b.car_id),
            ),
        )


class AccidentRecorder(Actor):
    """"Insert Accident": records incidents into the relational database.

    While the incident persists, the upstream detectors keep re-detecting
    it; the recorder re-inserts at most every ``refresh_s`` seconds, which
    keeps the accident "fresh" for the 60-second recency filter of the toll
    and notification queries and lets it expire naturally once cleared.
    """

    def __init__(self, database: Database, name: str = "InsertAccident",
                 refresh_s: int = 20):
        super().__init__(name)
        self.add_input("in")
        self.add_output("out")
        self.database = database
        self.refresh_s = refresh_s
        self.inserted = 0
        self._last_insert: dict[tuple, int] = {}
        self.priority = 10
        self.nominal_cost_us = 500

    def fire(self, ctx: FiringContext) -> None:
        event = ctx.read("in")
        if event is None:
            return
        accident: Accident = event.value
        key = (
            accident.xway,
            accident.direction,
            accident.segment,
            accident.position,
        )
        last = self._last_insert.get(key)
        if last is not None and accident.time - last < self.refresh_s:
            return
        self._last_insert[key] = accident.time
        self.database.execute(
            lrdb.INSERT_ACCIDENT,
            {
                "xway": accident.xway,
                "direction": accident.direction,
                "segment": accident.segment,
                "position": accident.position,
                "timestamp": accident.time,
            },
        )
        self.inserted += 1
        ctx.send("out", accident)


class AccidentNotifier(Actor):
    """Figure 13: per position report, look for accidents up the road."""

    def __init__(self, database: Database, name: str = "AccidentNotification"):
        super().__init__(name)
        self.add_input("in")
        self.add_output("out")
        self.database = database
        self.priority = 5
        self.nominal_cost_us = 300
        self._already_alerted: set[tuple[int, int]] = set()

    def fire(self, ctx: FiringContext) -> None:
        event = ctx.read("in")
        if event is None:
            return
        report: PositionReport = event.value
        if report.lane == Lane.EXIT:
            return
        rows = self.database.execute(
            lrdb.ACCIDENT_AHEAD_QUERY,
            {
                "xway": report.xway,
                "direction": report.direction,
                "segment": report.segment,
                "now": report.time,
            },
        )
        for (accident_segment,) in rows:
            key = (report.car_id, accident_segment)
            if key in self._already_alerted:
                continue
            self._already_alerted.add(key)
            ctx.send(
                "out",
                AccidentAlert(
                    report.car_id,
                    report.time,
                    report.xway,
                    report.direction,
                    accident_segment,
                ),
            )


class AvgSv(Actor):
    """Figure 14: per-minute average speed of each car in each segment."""

    def __init__(self, name: str = "Avgsv"):
        super().__init__(name)
        self.add_input(
            "in",
            WindowSpec.time(
                MINUTE_US,
                MINUTE_US,
                group_by=lambda event: (
                    event.value.car_id,
                    event.value.xway,
                    event.value.direction,
                    event.value.segment,
                ),
                timeout=WINDOW_TIMEOUT_US,
            ),
        )
        self.add_output("out")
        self.priority = 10
        self.nominal_cost_us = 900

    def fire(self, ctx: FiringContext) -> None:
        window = ctx.read("in")
        if window is None or len(window) == 0:
            return
        reports: list[PositionReport] = window.values
        first = reports[0]
        mean_speed = sum(report.speed for report in reports) / len(reports)
        minute = (window.start or 0) // MINUTE_US
        ctx.send(
            "out",
            SegmentStat(
                first.xway,
                first.direction,
                first.segment,
                int(minute),
                mean_speed,
            ),
        )


class AvgS(Actor):
    """Figure 10's Avgs: per-minute segment speed, then the 5-minute LAV."""

    def __init__(self, name: str = "Avgs"):
        super().__init__(name)
        self.add_input(
            "in",
            WindowSpec.time(
                MINUTE_US,
                MINUTE_US,
                group_by=lambda event: (
                    event.value.xway,
                    event.value.direction,
                    event.value.segment,
                ),
                timeout=WINDOW_TIMEOUT_US,
            ),
        )
        self.add_output("out")
        self.priority = 10
        self.nominal_cost_us = 800
        self._history: dict[tuple, deque] = {}

    def fire(self, ctx: FiringContext) -> None:
        window = ctx.read("in")
        if window is None or len(window) == 0:
            return
        stats: list[SegmentStat] = window.values
        first = stats[0]
        minute_avg = sum(stat.value for stat in stats) / len(stats)
        key = (first.xway, first.direction, first.segment)
        history = self._history.setdefault(
            key, deque(maxlen=LAV_WINDOW_MINUTES)
        )
        history.append(minute_avg)
        lav = sum(history) / len(history)
        ctx.send(
            "out",
            SegmentStat(
                first.xway,
                first.direction,
                first.segment,
                first.minute + 1,
                lav,
            ),
        )


class CarCounter(Actor):
    """Figure 15: distinct cars per segment in the previous minute."""

    def __init__(self, name: str = "cars"):
        super().__init__(name)
        self.add_input(
            "in",
            WindowSpec.time(
                MINUTE_US,
                MINUTE_US,
                group_by=lambda event: (
                    event.value.xway,
                    event.value.direction,
                    event.value.segment,
                ),
                timeout=WINDOW_TIMEOUT_US,
            ),
        )
        self.add_output("out")
        self.priority = 10
        self.nominal_cost_us = 800

    def fire(self, ctx: FiringContext) -> None:
        window = ctx.read("in")
        if window is None or len(window) == 0:
            return
        reports: list[PositionReport] = window.values
        first = reports[0]
        distinct = len({report.car_id for report in reports})
        minute = (window.start or 0) // MINUTE_US
        ctx.send(
            "out",
            SegmentStat(
                first.xway,
                first.direction,
                first.segment,
                int(minute),
                float(distinct),
            ),
        )


class SegmentStatsWriter(Actor):
    """Maintains the ``segmentStatistics`` table from LAV and car counts."""

    def __init__(self, database: Database, name: str = "SegmentStatistics"):
        super().__init__(name)
        self.add_input("lav")
        self.add_input("cars")
        self.database = database
        self.priority = 10
        self.nominal_cost_us = 1000
        self.writes = 0

    def fire(self, ctx: FiringContext) -> None:
        while True:
            event = ctx.read("lav")
            if event is None:
                break
            stat: SegmentStat = event.value
            lrdb.upsert_segment_statistics(
                self.database,
                stat.xway,
                stat.segment,
                stat.direction,
                lav=stat.value,
            )
            self.writes += 1
        while True:
            event = ctx.read("cars")
            if event is None:
                break
            stat = event.value
            lrdb.upsert_segment_statistics(
                self.database,
                stat.xway,
                stat.segment,
                stat.direction,
                num_cars=int(stat.value),
            )
            self.writes += 1


class SegmentCrossingDetector(Actor):
    """Toll triggering: a car's last two reports disagree on the segment."""

    def __init__(self, name: str = "SegmentCrossing"):
        super().__init__(name)
        self.add_input(
            "in",
            WindowSpec.tokens(
                2,
                1,
                group_by=lambda event: event.value.car_id,
            ),
        )
        self.add_output("out")
        self.priority = 10
        self.nominal_cost_us = 600

    def fire(self, ctx: FiringContext) -> None:
        window = ctx.read("in")
        if window is None or len(window) < 2:
            return
        previous, current = window.values
        if previous.segment == current.segment:
            return
        if current.lane == Lane.EXIT:
            return
        ctx.send("out", SegmentCrossing(current, previous.segment))


class TollCalculator(Actor):
    """Appendix A.3: computes the variable toll on each crossing."""

    def __init__(self, database: Database, name: str = "TollCalculation"):
        super().__init__(name)
        self.add_input("in")
        self.add_output("out")
        self.database = database
        self.priority = 5
        self.nominal_cost_us = 2800
        self.calculated = 0

    def fire(self, ctx: FiringContext) -> None:
        event = ctx.read("in")
        if event is None:
            return
        crossing: SegmentCrossing = event.value
        report = crossing.report
        row = self.database.execute(
            lrdb.TOLL_QUERY,
            {
                "now": report.time,
                "xway": report.xway,
                "segment": report.segment,
                "direction": report.direction,
            },
        ).first()
        toll = float(row["Toll"]) if row and row["Toll"] is not None else 0.0
        lav = row["LAV"] if row else None
        cars = row["numOfCars"] if row else None
        self.calculated += 1
        ctx.send(
            "out",
            TollNotification(
                report.car_id,
                report.time,
                toll,
                report.xway,
                report.direction,
                report.segment,
                lav,
                cars,
            ),
        )


class TollNotifier(SinkActor):
    """The output actor whose response times the paper's figures plot."""

    def __init__(self, name: str = "TollNotification"):
        super().__init__(name)
        self.priority = 5
        self.nominal_cost_us = 150

    @property
    def notifications(self) -> list[TollNotification]:
        return [item.value for _, item in self.items]


class AccidentNotificationOut(SinkActor):
    """Delivers accident alerts to the cars (the second output actor)."""

    def __init__(self, name: str = "AccidentNotificationOut"):
        super().__init__(name)
        self.priority = 5
        self.nominal_cost_us = 150

    @property
    def alerts(self) -> list[AccidentAlert]:
        return [item.value for _, item in self.items]

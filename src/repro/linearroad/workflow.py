"""Assembly of the Linear Road continuous workflow (paper Figure 10).

The top level wires three areas — accidents, segment statistics and tolls —
off a single position-report feed::

                        +-> StoppedCarDetector -> AccidentDetector -> InsertAccident
                        +-> AccidentNotification -> AccidentNotificationOut
    CarPositionReports -+-> Avgsv -> Avgs ----------> SegmentStatistics (DB)
                        +-> cars --------------------^
                        +-> SegmentCrossing -> TollCalculation -> TollNotification

With ``hierarchical=True`` the stopped-car and per-car-average tasks are
built as composite actors containing SDF/DDF sub-workflows, mirroring the
two-level hierarchy of Figures 11–15 (the flat variant computes the same
results and is what the benchmarks run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from . import db as lrdb
from ..core.actors import Actor
from ..core.workflow import Workflow
from ..sqldb import Database
from .actors import (
    AccidentDetector,
    AccidentNotificationOut,
    AccidentNotifier,
    AccidentRecorder,
    AvgS,
    AvgSv,
    CarCounter,
    CarPositionSource,
    SegmentCrossingDetector,
    SegmentStatsWriter,
    StoppedCarDetector,
    TollCalculator,
    TollNotifier,
)


@dataclass
class LinearRoadSystem:
    """The assembled workflow plus handles to its probes."""

    workflow: Workflow
    database: Database
    source: CarPositionSource
    toll_out: TollNotifier
    accident_out: AccidentNotificationOut
    recorder: AccidentRecorder
    toll_calculator: TollCalculator

    @property
    def toll_response_times_us(self) -> list[tuple[int, int]]:
        """(emission_time_us, response_time_us) at TollNotification."""
        return self.toll_out.response_times_us


#: Named group-by keys sharded execution can partition the feed on.
#: Every actor's keyed state (windows grouped by car or location, the
#: per-expressway database tables) partitions cleanly along ``xway``
#: because a car never changes expressway mid-scenario — which is what
#: makes ``xway`` the bit-reproducible shard key.  ``direction`` and
#: ``car_id`` are offered for workloads keyed differently; ``car_id``
#: has high cardinality and is only suitable for small scenarios.
SHARD_KEYS: dict[str, Callable[[object], Hashable]] = {
    "xway": lambda report: report.xway,
    "direction": lambda report: report.direction,
    "car_id": lambda report: report.car_id,
}


def shard_key_fn(name: str) -> Callable[[object], Hashable]:
    """Resolve a ``--shard-key`` name to its report-keying function."""
    try:
        return SHARD_KEYS[name]
    except KeyError:
        raise ValueError(
            f"unknown shard key {name!r}; choose one of "
            f"{sorted(SHARD_KEYS)}"
        ) from None


def build_linear_road(
    arrivals,
    database: Optional[Database] = None,
    hierarchical: bool = False,
    out_of_order: bool = False,
    disorder_us: int = 0,
) -> LinearRoadSystem:
    """Build the full Linear Road CWf over the given arrival schedule."""
    db = database or lrdb.create_linear_road_database()
    workflow = Workflow("linear-road")

    source = CarPositionSource(
        arrivals=arrivals,
        out_of_order=out_of_order,
        disorder_us=disorder_us,
    )
    if hierarchical:
        from .subworkflows import (
            build_avgsv_composite,
            build_stopped_car_composite,
        )

        stopped: Actor = build_stopped_car_composite()
        avgsv: Actor = build_avgsv_composite()
    else:
        stopped = StoppedCarDetector()
        avgsv = AvgSv()
    detector = AccidentDetector()
    recorder = AccidentRecorder(db)
    notifier = AccidentNotifier(db)
    accident_out = AccidentNotificationOut()
    avgs = AvgS()
    cars = CarCounter()
    writer = SegmentStatsWriter(db)
    crossing = SegmentCrossingDetector()
    toll = TollCalculator(db)
    toll_out = TollNotifier()

    workflow.add_all(
        [
            source,
            stopped,
            detector,
            recorder,
            notifier,
            accident_out,
            avgsv,
            avgs,
            cars,
            writer,
            crossing,
            toll,
            toll_out,
        ]
    )
    reports = source.output("reports")
    workflow.connect(reports, stopped.input("in"))
    workflow.connect(stopped, detector)
    workflow.connect(detector, recorder)
    workflow.connect(reports, notifier.input("in"))
    workflow.connect(notifier, accident_out)
    workflow.connect(reports, avgsv.input("in"))
    workflow.connect(avgsv, avgs)
    workflow.connect(avgs.output("out"), writer.input("lav"))
    workflow.connect(reports, cars.input("in"))
    workflow.connect(cars.output("out"), writer.input("cars"))
    workflow.connect(reports, crossing.input("in"))
    workflow.connect(crossing, toll)
    workflow.connect(toll, toll_out)

    return LinearRoadSystem(
        workflow, db, source, toll_out, accident_out, recorder, toll
    )

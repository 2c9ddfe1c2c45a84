"""Names, units, directions and bounds of every metric the benchmark prints.

This table is the definition; ``BENCHMARK.json`` repeats the names, units
and directions (the self-test holds the two equal) and ``compare.py`` takes
the bounds from here.  No engine import: ``run.py`` and ``compare.py`` load
it without the program on the path.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class EndToEnd:
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the base median by which the metric may get worse before
    #: it counts as a regression.
    bound: float
    #: A floor under ``bound * median``, in the metric's unit, for metrics
    #: whose medians are small enough that timer noise exceeds the share.
    floor: float = 0.0


#: Reported by every run of every workload, in this order.
CONTRACT_E2E = ("events_per_s", "latency_p50_ms", "peak_rss_mb", "setup_s")

E2E: dict[str, EndToEnd] = {
    # Seeded input events / wall seconds of the entry-point call.
    "events_per_s": EndToEnd("1/s", "higher", 0.25),
    # Median sink response time (emission - the input event's due time) on
    # the engine's clock: wall ms on lr_live, engine ms on the virtual clock.
    "latency_p50_ms": EndToEnd("ms", "lower", 0.25),
    # ru_maxrss of the measuring process (+ the largest worker when sharded).
    "peak_rss_mb": EndToEnd("MB", "lower", 0.10),
    # Input generation + workflow build through the public constructors.
    "setup_s": EndToEnd("s", "lower", 0.25, floor=0.05),
    # Pre-thrash mean TollNotification response in engine seconds and the
    # input rate at the thrash point (the paper's Fig. 8 numbers), on
    # lr_batch only; deterministic per seed.
    "virt_latency_mean_s": EndToEnd("s", "lower", 0.02),
    "virt_thrash_rate_rps": EndToEnd("1/s", "higher", 0.02),
    # Records failing the correctness check / records checked.
    "failed_share": EndToEnd("ratio", "lower", 0.0),
}


@dataclass(frozen=True)
class Layer:
    unit: str
    better: str
    #: The end-to-end metric (and workload) this should move, written down
    #: before measuring; "" for bookkeeping values that move nothing.
    moves: str


_EPS_ALL = "events_per_s everywhere"
_SCHED = (
    "events_per_s on relay_chain (large) and lr_batch (~1/6); "
    "latency_p50_ms on lr_live"
)
_RECV = (
    "events_per_s on lr_batch and both lr_xway4_*; no change on relay_chain"
)
_SQL = (
    "events_per_s on lr_batch (~1/5), latency_p50_ms on lr_live; "
    "none on relay_chain"
)
_VIRT = "events_per_s on every virtual-clock workload"
_LIVE = "latency_p50_ms on lr_live"
_SHARD = "events_per_s on lr_xway4_shard2 only"
_ACTOR = "events_per_s on the workload that runs the class"

LAYERS: dict[str, Layer] = {
    "gen.reports": Layer("count", "higher", "setup_s on the LR workloads"),
    "gen.busy_s": Layer("s", "lower", "setup_s on the LR workloads"),
    "runtime.iterations": Layer("count", "lower", _EPS_ALL),
    "runtime.self_s": Layer("s", "lower", _EPS_ALL),
    "runtime.idle_sleep_s": Layer("s", "higher", _LIVE),
    "director.iterations": Layer("count", "lower", _EPS_ALL),
    "director.internal_firings": Layer("count", "lower", _EPS_ALL),
    "director.source_firings": Layer("count", "lower", _EPS_ALL),
    "director.self_s": Layer(
        "s", "lower", "events_per_s, mostly relay_chain"
    ),
    "sched.pick_calls": Layer("count", "lower", _SCHED),
    "sched.pick_s": Layer("s", "lower", _SCHED),
    "sched.enqueue_calls": Layer("count", "lower", _SCHED),
    "sched.enqueue_s": Layer("s", "lower", _SCHED),
    "sched.empty_pick_share": Layer("ratio", "lower", _SCHED),
    "recv.put_calls": Layer("count", "lower", _RECV),
    "recv.put_s": Layer("s", "lower", _RECV),
    "recv.windows_out": Layer("count", "higher", _RECV),
    "recv.windows_per_put": Layer("ratio", "higher", _RECV),
    "recv.deadline_scan_calls": Layer("count", "lower", _RECV),
    "recv.deadline_scan_s": Layer("s", "lower", _RECV),
    "recv.timeout_calls": Layer("count", "lower", _RECV),
    "recv.timeout_s": Layer("s", "lower", _RECV),
    "actor.fire_calls": Layer("count", "lower", _ACTOR),
    "actor.fire_self_s": Layer("s", "lower", _ACTOR),
    "sql.select_calls": Layer("count", "lower", _SQL),
    "sql.select_s": Layer("s", "lower", _SQL),
    "sql.write_calls": Layer("count", "lower", _SQL),
    "sql.write_s": Layer("s", "lower", _SQL),
    "stats.record_calls": Layer("count", "lower", _VIRT),
    "stats.record_s": Layer("s", "lower", _VIRT),
    "cost.calls": Layer("count", "lower", _VIRT),
    "cost.s": Layer("s", "lower", _VIRT),
    "source.pump_calls": Layer("count", "lower", _LIVE),
    "source.pump_s": Layer("s", "lower", _LIVE),
    "source.events_per_pump": Layer("ratio", "higher", _LIVE),
    "source.lag_p50_ms": Layer("ms", "lower", _LIVE),
    "source.lag_max_ms": Layer("ms", "lower", _LIVE),
    "sink.items": Layer("count", "higher", ""),
    "sink.fire_s": Layer("s", "lower", _EPS_ALL),
    "sink.backlog_at_end": Layer("count", "lower", _LIVE),
    # The tail is too noisy on a shared 2-core box to gate on.
    "sink.latency_p90_ms": Layer("ms", "lower", _LIVE),
    "sink.latency_p99_ms": Layer("ms", "lower", _LIVE),
    "ckpt.snapshot_bytes": Layer("bytes", "lower", ""),
    "ckpt.snapshot_s": Layer("s", "lower", ""),
    "shard.partition_s": Layer("s", "lower", _SHARD),
    "shard.merge_s": Layer("s", "lower", _SHARD),
    "shard.merge_records": Layer("count", "higher", _SHARD),
    "shard.encode_s": Layer("s", "lower", _SHARD),
    "shard.decode_s": Layer("s", "lower", _SHARD),
    "shard.bytes_sent": Layer("bytes", "lower", _SHARD),
    "shard.bytes_per_event": Layer("bytes", "lower", _SHARD),
    "shard.chunks_sent": Layer("count", "lower", _SHARD),
    "shard.send_s": Layer("s", "lower", _SHARD),
    "shard.ack_wait_s": Layer("s", "lower", _SHARD),
    "shard.peak_inflight": Layer("count", "higher", _SHARD),
    "shard.feed_s": Layer("s", "lower", _SHARD),
    "shard.run_to_s": Layer("s", "lower", _SHARD),
    "shard.result_s": Layer("s", "lower", _SHARD),
    # The sharded run can be no faster than its busiest logical shard.
    "shard.busy_skew": Layer("ratio", "lower", _SHARD),
    "shard.events_skew": Layer("ratio", "lower", _SHARD),
    # Tolls both sides emit whose LAV/count fields differ from the
    # single-process oracle (a known limit, ROADMAP item 4), plus alerts
    # only one side has.
    "shard.oracle_mismatches": Layer("count", "lower", ""),
    "trace.overhead_ratio": Layer("ratio", "lower", ""),
    "trace.root_s": Layer("s", "lower", ""),
    "entry.self_s": Layer("s", "lower", _EPS_ALL),
    "obs.recording_tracer_ratio": Layer("ratio", "lower", ""),
    "virt.latency_mean_s": Layer("s", "lower", ""),
    "virt.thrash_rate_rps": Layer("1/s", "higher", ""),
}

#: Actor classes with their own fire-count / self-time pair.
ACTOR_CLASSES = (
    "StoppedCarDetector",
    "AccidentDetector",
    "AccidentRecorder",
    "AccidentNotifier",
    "AccidentNotificationOut",
    "AvgSv",
    "AvgS",
    "CarCounter",
    "SegmentStatsWriter",
    "SegmentCrossingDetector",
    "TollCalculator",
    "TollNotifier",
    "MapActor",
    "FusedChain",
)
for _cls in ACTOR_CLASSES:
    LAYERS[f"actor.{_cls}.fire_calls"] = Layer("count", "lower", _ACTOR)
    LAYERS[f"actor.{_cls}.fire_self_s"] = Layer("s", "lower", _ACTOR)


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles, count and inter-quartile spread of one metric."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        # Distance between the quartiles as a share of the median.
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "values": values,
    }


def allowance(name: str, base_median: float) -> float:
    """How far *name* may move the wrong way before it is a regression."""
    spec = E2E[name]
    return max(spec.bound * abs(base_median), spec.floor)

"""One timed run of one workload in this (fresh) process.

``run.py`` starts this script once per (workload, repeat) and reads the one
JSON object it prints last.  In order: a discarded tenth-size warm-up; the
set-up, timed three times; one timed entry-point call with tracing off; the
output checks.  With ``--trace 1`` a second, traced run of the same input
follows and the per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from instrument import install, layer_metrics, source_lag_ms  # noqa: E402
from metrics import LAYERS  # noqa: E402
from tracing import layer_table, SpanTracer  # noqa: E402
from workloads import latency_summary, Workload, WORKLOADS  # noqa: E402

#: Set-ups timed per process; ``setup_s`` is their median.
SETUP_REPEATS = 3


def peak_rss_mb(with_children: bool) -> float:
    """High-water RSS of this process, plus the largest reaped child's."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


def timed_run(workload: Workload, inputs):
    gc.collect()
    started = time.perf_counter()
    raw = workload.run(inputs)
    return raw, time.perf_counter() - started


def traced_run(
    workload: Workload, seed: int, scale: float, plain_wall_s: float, plain_outcome
) -> dict:
    """Run the same input again under the span wrappers."""
    tracer = SpanTracer()
    install(tracer)
    try:
        # Wrappers go on before the build: directors bind methods early.
        inputs = workload.setup(seed, scale)
        gc.collect()
        with tracer.root():
            raw = workload.run(inputs)
    finally:
        tracer.uninstall()
    outcome = workload.finish(inputs, raw, oracle=False)
    by_name = tracer.by_name()
    values = dict.fromkeys(LAYERS, 0.0)
    values.update(layer_metrics(tracer, by_name))
    values.update(workload.layer_extras(inputs, raw, tracer, plain_wall_s))
    if workload.time_scale != 1.0:
        lag_p50, lag_max = source_lag_ms(tracer, workload.time_scale)
        values["source.lag_p50_ms"] = lag_p50
        values["source.lag_max_ms"] = lag_max
    # Sink figures come from the untraced run: wrappers delay real time.
    tail = latency_summary(workload, plain_outcome)
    values["sink.items"] = plain_outcome.sink_items
    values["sink.backlog_at_end"] = plain_outcome.backlog_at_end
    values["sink.latency_p90_ms"] = tail["p90"]
    values["sink.latency_p99_ms"] = tail["p99"]
    values["shard.oracle_mismatches"] = plain_outcome.notes.get(
        "oracle_mismatches", 0
    )
    for name, value in plain_outcome.extra_e2e.items():
        values[name.replace("virt_", "virt.")] = value
    values["trace.overhead_ratio"] = tracer.root_seconds() / plain_wall_s
    unknown = set(values) - set(LAYERS)
    if unknown:
        raise SystemExit(f"per-layer metrics not declared: {sorted(unknown)}")
    return {
        "values": values,
        "table": layer_table(by_name),
        "root_s": tracer.root_seconds(),
        "spans": len(tracer.start_ns),
        "digest": outcome.digest,
        "wrappers_left": tracer.installed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--oracle", type=int, choices=(0, 1), default=1,
        help="compare the sharded trace with the single-process oracle",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    workload.warm_up(args.seed)
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        started = time.perf_counter()
        inputs = workload.setup(args.seed, args.scale)
        setup_samples.append(time.perf_counter() - started)
    raw, wall_s = timed_run(workload, inputs)
    rss_mb = peak_rss_mb(with_children=workload.forks_workers)
    outcome = workload.finish(inputs, raw, oracle=bool(args.oracle))
    latency = latency_summary(workload, outcome)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "events": inputs.events,
        "wall_s": wall_s,
        "checked": outcome.checked,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "latency": latency,
        "notes": outcome.notes,
        "e2e": {
            "events_per_s": inputs.events / wall_s,
            "latency_p50_ms": latency["p50"],
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup_samples),
            "failed_share": outcome.failed / max(outcome.checked, 1),
            **outcome.extra_e2e,
        },
    }
    if args.trace:
        detail["trace"] = traced_run(
            workload, args.seed, args.scale, wall_s, outcome
        )
        if detail["trace"]["digest"] != outcome.digest:
            # The traced run must compute what the untraced run computed.
            detail["failed"] += 1
            detail["notes"]["traced_digest_differs"] = 1
    print(json.dumps(detail))
    return 0


if __name__ == "__main__":
    sys.exit(main())

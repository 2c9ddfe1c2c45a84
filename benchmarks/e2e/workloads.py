"""The five benchmark workloads.

Each workload is three calls, timed apart:

``setup``   generate the seeded inputs and build the workflow through the
            public constructors (``setup_s``);
``run``     the one entry-point call whose wall time is the measurement;
``finish``  untimed: check the outputs against a reference, digest them,
            read the sinks' response times.

The harness only *calls* the engine.  Engine options (train size, fusion,
shard codec and in-flight window) come from ``ExperimentConfig()`` /
``SCWFDirector`` defaults and are never pinned here, so a change that flips
a default is measured as what users now get.  The seed reaches the engine
only through the generated inputs.

Sizes are fixed per workload (``scale`` 1.0) so that one timed run takes
2-3 s on the 2-CPU reference container and a benchmark run can take the
median of several; ``scale`` shrinks them for the in-process warm-up and
the harness self-test only.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.checkpoint import EngineCheckpointer, MemoryCheckpointStore
from repro.core.actors import MapActor, SinkActor, SourceActor
from repro.core.workflow import Workflow
from repro.fusion import fuse_workflow
from repro.harness import (
    default_cost_model,
    ExperimentConfig,
    ExperimentResult,
    latency_percentiles,
    make_scheduler,
    run_once,
    run_sharded,
    SchedulerSpec,
)
from repro.linearroad import (
    AccidentAlert,
    build_linear_road,
    LinearRoadSystem,
    LinearRoadValidator,
    LinearRoadWorkload,
    TollNotification,
    WorkloadConfig,
)
from repro.linearroad.workflow import shard_key_fn
from repro.observability import RecordingTracer, use_tracer
from repro.resilience import FaultPolicy
from repro.shard import (
    build_shard_engine,
    decode_chunk,
    partition_arrivals,
    run_single_canonical,
)
from repro.simulation import CostModel, SimulationRuntime, VirtualClock, WallClock
from repro.stafilos import SCWFDirector

from tracing import SpanTracer


@dataclass
class Inputs:
    """What ``setup`` hands to ``run`` and ``finish``."""

    config: ExperimentConfig
    seed: int
    scale: float
    #: Seeded input events (position reports / relay tokens), all stamped
    #: before the horizon: the numerator of ``events_per_s``.
    events: int
    arrivals: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    system: Optional[LinearRoadSystem] = None
    workflow: Optional[Workflow] = None
    sink: Optional[SinkActor] = None
    slices: Optional[dict] = None


@dataclass
class Outcome:
    """What ``finish`` found in the outputs of one timed run."""

    checked: int
    failed: int
    digest: str
    #: The sinks' ``(emission_us, response_us)`` samples, engine clock.
    responses_us: list
    sink_items: int
    backlog_at_end: int
    #: End-to-end metrics only this workload has.
    extra_e2e: dict = field(default_factory=dict)
    #: Counts worth reporting that are not failures.
    notes: dict = field(default_factory=dict)


@contextmanager
def capture(*classes: type):
    """Collect the instances of *classes* constructed inside the block.

    ``run_once`` and ``run_single_canonical`` return summaries, not the
    sinks; this is how ``finish`` gets at the ``LinearRoadSystem`` (and the
    director) they built, without importing the harness's private helpers.
    """
    seen: dict[type, list] = {cls: [] for cls in classes}
    originals = {cls: cls.__init__ for cls in classes}

    def recording(cls):
        original = originals[cls]

        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            seen[cls].append(self)

        return __init__

    for cls in classes:
        cls.__init__ = recording(cls)
    try:
        yield seen
    finally:
        for cls, original in originals.items():
            cls.__init__ = original


def digest_of(records: Any) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


def audit_linear_road(
    reports: list, tolls: list, alerts: list, recorded: int, dead_letters: int
) -> tuple[int, int]:
    """(records checked, records failed) by the independent trace replay."""
    report = LinearRoadValidator(reports).validate(tolls, alerts, recorded)
    checked = report.checked_tolls + report.checked_alerts
    return checked, len(report.problems) + dead_letters


def sink_records(sink: SinkActor) -> list:
    return [(now, item.timestamp, item.value) for now, item in sink.items]


class Workload:
    """One named set of inputs plus the entry point that consumes them."""

    name: str
    why: str
    #: Engine microseconds per wall microsecond (1 on the virtual clock,
    #: where the question does not arise).
    time_scale = 1.0
    #: Whether the run spawns worker processes (their RSS counts too).
    forks_workers = False

    def config(self, scale: float) -> ExperimentConfig:
        raise NotImplementedError

    def setup(self, seed: int, scale: float) -> Inputs:
        raise NotImplementedError

    def run(self, inputs: Inputs) -> Any:
        raise NotImplementedError

    def finish(self, inputs: Inputs, raw: Any, oracle: bool) -> Outcome:
        raise NotImplementedError

    def warm_up(self, seed: int) -> None:
        """One discarded tenth-size run: imports, caches, lazy set-up."""
        inputs = self.setup(seed, 0.1)
        self.run(inputs)

    def layer_extras(
        self, inputs: Inputs, raw: Any, tracer: SpanTracer, plain_wall_s: float
    ) -> dict:
        """Per-layer metrics measured beside the traced run (wrappers off)."""
        return {}


class LinearRoadBase(Workload):
    """Shared set-up of the Linear Road workloads."""

    scheduler: SchedulerSpec
    l_rating = 0.5
    duration_s: int
    peak_rate: float

    def config(self, scale: float) -> ExperimentConfig:
        return ExperimentConfig(
            self.scheduler,
            workload=WorkloadConfig(
                l_rating=self.l_rating,
                duration_s=self.duration_s,
                peak_rate=self.peak_rate * scale,
            ),
        )

    def setup(self, seed: int, scale: float) -> Inputs:
        config = self.config(scale)
        workload = LinearRoadWorkload(replace(config.workload, seed=seed))
        arrivals = workload.arrivals()
        system = build_linear_road(arrivals)
        if config.fuse:
            fuse_workflow(system.workflow)
        return Inputs(
            config,
            seed,
            scale,
            len(arrivals),
            arrivals,
            workload.reports(),
            system=system,
        )

    @staticmethod
    def outcome_of_system(
        inputs: Inputs,
        system: LinearRoadSystem,
        dead_letters: int,
        backlog: int,
        digest: str,
    ) -> Outcome:
        checked, failed = audit_linear_road(
            inputs.reports,
            system.toll_out.notifications,
            system.accident_out.alerts,
            system.recorder.inserted,
            dead_letters,
        )
        return Outcome(
            checked=checked,
            failed=failed,
            digest=digest,
            responses_us=system.toll_response_times_us,
            sink_items=len(system.toll_out.items)
            + len(system.accident_out.items),
            backlog_at_end=backlog,
        )


class LrBatch(LinearRoadBase):
    name = "lr_batch"
    why = (
        "the paper's Fig. 8 shape (L=0.5 ramp past RR capacity, run_once on "
        "the virtual clock): pick, firing, windows, timeouts, toll SQL and "
        "the overloaded tail all weigh at once"
    )
    scheduler = SchedulerSpec("RR", 40_000)
    # The ramp passes RR's capacity at ~90 s; the thrash point (response
    # above 4 s for good) falls at 110 s on every seed tried.
    duration_s = 140
    peak_rate = 240.0

    def run(self, inputs: Inputs):
        with capture(LinearRoadSystem, SCWFDirector) as seen:
            result = run_once(inputs.config, inputs.seed)
        return result, seen[LinearRoadSystem][-1], seen[SCWFDirector][-1]

    def finish(self, inputs: Inputs, raw, oracle: bool) -> Outcome:
        result, system, _ = raw
        digest = digest_of(
            (sink_records(system.toll_out), sink_records(system.accident_out))
        )
        outcome = self.outcome_of_system(
            inputs, system, result.dead_letters, result.backlog_at_end, digest
        )
        experiment = ExperimentResult(inputs.config, result.series, [result])
        thrash_rate = experiment.thrash_input_rate()
        outcome.extra_e2e = {
            # Pre-thrash mean TollNotification response, engine seconds.
            "virt_latency_mean_s": experiment.mean_pre_thrash_s(),
            # Input rate at the thrash point; the peak when never reached.
            "virt_thrash_rate_rps": (
                inputs.config.workload.peak_rate
                if thrash_rate is None
                else thrash_rate
            ),
        }
        return outcome

    def layer_extras(self, inputs, raw, tracer, plain_wall_s) -> dict:
        _, _, director = raw
        started = time.perf_counter()
        manifest = EngineCheckpointer(
            director, MemoryCheckpointStore()
        ).checkpoint()
        return {
            "ckpt.snapshot_bytes": manifest.payload_bytes,
            "ckpt.snapshot_s": time.perf_counter() - started,
        }


class LrLive(LinearRoadBase):
    name = "lr_live"
    why = (
        "open loop on WallClock(time_scale=10) at a third of capacity: the "
        "only real latency (due time to toll, wall ms); paced per-second "
        "bursts and idle sleeps, so batching that adds queueing delay shows"
    )
    scheduler = SchedulerSpec("RR", 40_000)
    time_scale = 10.0
    duration_s = 100
    peak_rate = 100.0

    def config(self, scale: float) -> ExperimentConfig:
        # An open loop only gets shorter by shortening its schedule; below
        # 40 s of event time Linear Road emits no toll at all.
        config = super().config(1.0)
        duration = max(40, round(self.duration_s * scale))
        return config.scaled_duration(duration)

    def engine(self, inputs: Inputs, clock) -> SCWFDirector:
        config = inputs.config
        director = SCWFDirector(
            make_scheduler(config.scheduler),
            clock,
            default_cost_model(seed=config.cost_seed + inputs.seed),
            error_policy=FaultPolicy(propagate=True),
            train_size=config.train_size,
        )
        director.attach(inputs.system.workflow)
        return director

    def run(self, inputs: Inputs):
        # The schedule starts when the clock is made: events are due at
        # their timestamps on it whether or not the engine keeps up.
        clock = WallClock(time_scale=self.time_scale)
        director = self.engine(inputs, clock)
        SimulationRuntime(director, clock).run(
            inputs.config.workload.duration_s
        )
        return director

    def warm_up(self, seed: int) -> None:
        inputs = self.setup(seed, 0.1)
        clock = VirtualClock()
        SimulationRuntime(self.engine(inputs, clock), clock).run(
            inputs.config.workload.duration_s
        )

    def finish(self, inputs: Inputs, director, oracle: bool) -> Outcome:
        system = inputs.system
        # Wall-time window timeouts race the statistics writes, so a toll's
        # LAV may differ between runs; which crossings are tolled may not.
        digest = digest_of(
            sorted(
                (toll.car_id, toll.time, toll.segment)
                for toll in system.toll_out.notifications
            )
        )
        backlog = director.backlog()
        outcome = self.outcome_of_system(
            inputs,
            system,
            len(director.supervisor.dead_letters),
            backlog,
            digest,
        )
        # Work still queued at the horizon missed any latency limit.
        outcome.checked += backlog
        outcome.failed += backlog
        return outcome


class RelayChain(Workload):
    name = "relay_chain"
    why = (
        "source -> 12 MapActors -> sink, no windows, no SQL: nearly pure "
        "scheduler/director/receiver/statistics dispatch; a window or SQL "
        "change must leave it flat, a dispatch change must show here"
    )
    hops = 12
    events = 7_000
    #: Mean gap between tokens; each gap is drawn from the seed.
    spacing_us = 100

    def config(self, scale: float) -> ExperimentConfig:
        return ExperimentConfig(SchedulerSpec("RR", 10_000))

    def setup(self, seed: int, scale: float) -> Inputs:
        config = self.config(scale)
        count = max(1, round(self.events * scale))
        rng = random.Random(seed)
        due_us = 0
        arrivals = []
        for index in range(count):
            due_us += rng.randint(self.spacing_us // 2, 3 * self.spacing_us // 2)
            arrivals.append((due_us, seed + index))
        workflow = Workflow("relay-chain")
        source = SourceActor("source", arrivals=arrivals)
        source.add_output("out")
        maps = [
            MapActor(f"map{hop}", lambda value: value + 1)
            for hop in range(self.hops)
        ]
        sink = SinkActor("sink")
        workflow.add_all([source, *maps, sink])
        chain = [source, *maps, sink]
        for upstream, downstream in zip(chain, chain[1:]):
            workflow.connect(upstream, downstream)
        if config.fuse:
            fuse_workflow(workflow)
        return Inputs(
            config, seed, scale, count, arrivals, workflow=workflow, sink=sink
        )

    def run(self, inputs: Inputs):
        config = inputs.config
        clock = VirtualClock()
        director = SCWFDirector(
            make_scheduler(config.scheduler),
            clock,
            CostModel(),
            train_size=config.train_size,
        )
        director.attach(inputs.workflow)
        horizon_s = (inputs.arrivals[-1][0] + 1) / 1_000_000
        SimulationRuntime(director, clock).run(horizon_s, drain=True)
        return director

    def finish(self, inputs: Inputs, director, oracle: bool) -> Outcome:
        sink = inputs.sink
        expected = [
            inputs.seed + index + self.hops for index in range(inputs.events)
        ]
        values = sink.values
        failed = abs(len(values) - len(expected)) + sum(
            got != want for got, want in zip(values, expected)
        )
        return Outcome(
            checked=len(expected),
            failed=failed + len(director.supervisor.dead_letters),
            digest=digest_of(sink_records(sink)),
            responses_us=sink.response_times_us,
            sink_items=len(sink.items),
            backlog_at_end=director.backlog(),
        )

    def layer_extras(self, inputs, raw, tracer, plain_wall_s) -> dict:
        # The engine's own tracer, on, against the plain run: the baseline
        # for "tracing-off overhead stays at today's level".
        again = self.setup(inputs.seed, inputs.scale)
        with use_tracer(RecordingTracer()):
            started = time.perf_counter()
            self.run(again)
            recorded_s = time.perf_counter() - started
        return {"obs.recording_tracer_ratio": recorded_s / plain_wall_s}


class LrXway4Single(LinearRoadBase):
    name = "lr_xway4_single"
    why = (
        "four expressways, FIFO, event-time pure, one process "
        "(run_single_canonical): the single-threaded baseline of the "
        "sharded job and its bit-identity oracle"
    )
    scheduler = SchedulerSpec("FIFO")
    l_rating = 4.0
    duration_s = 240
    peak_rate = 80.0

    def run(self, inputs: Inputs):
        with capture(LinearRoadSystem, SCWFDirector) as seen:
            traces = run_single_canonical(inputs.config, inputs.seed)
        return traces, seen[LinearRoadSystem][-1], seen[SCWFDirector][-1]

    def finish(self, inputs: Inputs, raw, oracle: bool) -> Outcome:
        traces, system, director = raw
        return self.outcome_of_system(
            inputs,
            system,
            len(director.supervisor.dead_letters),
            director.backlog(),
            digest_of((traces["toll"], traces["accident"])),
        )


def _toll_key(record: tuple) -> tuple:
    timestamp, (_, car_id, report_time, _, xway, direction, segment, _, _) = record
    return (timestamp, car_id, report_time, xway, direction, segment)


class LrXway4Shard2(LrXway4Single):
    name = "lr_xway4_shard2"
    why = (
        "the same input through run_sharded(shards=2) on the default data "
        "plane: the only workload where codec, coordinator, pipe and merge "
        "work; a shard-plane change moves this and leaves the single flat"
    )
    shards = 2
    shard_key = "xway"
    forks_workers = True

    def setup(self, seed: int, scale: float) -> Inputs:
        inputs = super().setup(seed, scale)
        inputs.slices = partition_arrivals(
            inputs.arrivals, shard_key_fn(self.shard_key)
        )
        return inputs

    def run(self, inputs: Inputs):
        return run_sharded(
            inputs.config,
            seed=inputs.seed,
            shards=self.shards,
            shard_key=self.shard_key,
        )

    def finish(self, inputs: Inputs, result, oracle: bool) -> Outcome:
        tolls = [
            TollNotification(*payload[1:]) for _, payload in result.toll_trace
        ]
        alerts = [
            AccidentAlert(*payload[1:]) for _, payload in result.accident_trace
        ]
        checked, failed = audit_linear_road(
            inputs.reports,
            tolls,
            alerts,
            result.accidents_recorded,
            result.dead_letters,
        )
        notes = {}
        if oracle:
            # Record-by-record against the single-process run.  A toll the
            # two sides do not both emit is a failure.  A toll both emit
            # with different LAV/count fields is *counted* apart: event-
            # time-pure panes close on the next arrival at the receiver,
            # which in one process may belong to another expressway, so a
            # statistics row can land before a toll query on one side and
            # after it on the other (ROADMAP item 4) — both are valid
            # Linear Road answers, which the audit above has checked.
            single = run_single_canonical(inputs.config, inputs.seed)
            ours = {_toll_key(rec): rec for rec in result.toll_trace}
            theirs = {_toll_key(rec): rec for rec in single["toll"]}
            failed += len(ours.keys() ^ theirs.keys())
            notes["oracle_mismatches"] = sum(
                ours[key] != theirs[key] for key in ours.keys() & theirs.keys()
            ) + len(set(result.accident_trace) ^ set(single["accident"]))
        return Outcome(
            checked=checked,
            failed=failed,
            digest=digest_of((result.toll_trace, result.accident_trace)),
            responses_us=[
                sample
                for shard in result.per_shard.values()
                for sample in shard["toll_response_times_us"]
            ],
            sink_items=result.tolls + result.alerts,
            backlog_at_end=sum(
                shard["backlog_at_end"] for shard in result.per_shard.values()
            ),
            notes=notes,
        )

    def layer_extras(self, inputs, result, tracer, plain_wall_s) -> dict:
        """Coordinator-side transport counters plus a worker replay.

        Worker-process spans cannot be collected from outside, so the
        chunks the coordinator actually sent are replayed here, in process
        and untraced, through the worker's own sequence — decode, feed,
        run to the watermark, result — timed per logical shard.
        """
        config, seed = inputs.config, inputs.seed
        groups = tuple(sorted(inputs.slices))
        engines = {
            group: build_shard_engine(
                config, seed, self.shard_key, group, all_groups=groups
            )
            for group in groups
        }
        feed_s = dict.fromkeys(groups, 0.0)
        run_to_s = dict.fromkeys(groups, 0.0)
        result_s = dict.fromkeys(groups, 0.0)
        clock = time.perf_counter
        horizon_us = config.workload.duration_s * 1_000_000
        for watermark_us, blob in tracer.samples["shard.chunks"]:
            for group, rows in sorted(decode_chunk(blob).items()):
                engine = engines[group]
                started = clock()
                engine.feed(rows)
                fed = clock()
                engine.run_to(watermark_us)
                feed_s[group] += fed - started
                run_to_s[group] += clock() - fed
        for group, engine in engines.items():
            started = clock()
            engine.run_to(horizon_us)
            ran = clock()
            engine.result()
            run_to_s[group] += ran - started
            result_s[group] += clock() - ran
        busy = [feed_s[g] + run_to_s[g] + result_s[g] for g in groups]
        sizes = [len(inputs.slices[g]) for g in groups]
        transport = result.transport
        return {
            "shard.decode_s": transport["shard_decode_us"] / 1e6,
            "shard.bytes_sent": transport["shard_bytes_sent"],
            "shard.bytes_per_event": transport["shard_bytes_sent"]
            / inputs.events,
            "shard.chunks_sent": transport["shard_chunks_sent"],
            "shard.peak_inflight": transport["shard_peak_inflight"],
            "shard.feed_s": sum(feed_s.values()),
            "shard.run_to_s": sum(run_to_s.values()),
            "shard.result_s": sum(result_s.values()),
            "shard.busy_skew": max(busy) / statistics.fmean(busy),
            "shard.events_skew": max(sizes) / statistics.fmean(sizes),
        }


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        LrBatch(),
        RelayChain(),
        LrLive(),
        LrXway4Single(),
        LrXway4Shard2(),
    )
}


def latency_summary(workload: Workload, outcome: Outcome) -> dict:
    """Sink response percentiles in milliseconds of wall or virtual time."""
    to_ms = 1000.0 / workload.time_scale
    summary = {
        f"p{share}": seconds * to_ms
        for share, seconds in latency_percentiles(
            outcome.responses_us, (50, 90, 99)
        ).items()
    }
    summary["samples"] = len(outcome.responses_us)
    return summary

"""Experiment runner: one config -> averaged response-time series.

Builds the Linear Road workflow over the configured workload, runs it under
the configured scheduler (SCWF director for the STAFiLOS policies, the
simulated thread-based director for PNCWF) on a fresh virtual clock per
seed, and returns the bucketed "Response Time at TollNotification" series
the paper's figures plot — averaged over the seeds, as the paper averages
its three runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

from ..checkpoint import (
    CheckpointManifest,
    CheckpointStore,
    DirectoryCheckpointStore,
    EngineCheckpointer,
    restore_latest,
)
from ..core.exceptions import CheckpointError, SimulationError
from ..core.timekeeper import US_PER_S
from ..core.windows import strip_window_timeouts
from ..fusion import fuse_workflow
from ..linearroad.generator import LinearRoadWorkload
from ..linearroad.metrics import ResponseTimeSeries
from ..linearroad.workflow import build_linear_road, LinearRoadSystem
from ..observability import RecordingTracer, use_tracer
from ..resilience import FaultPolicy, install_faults
from ..simulation.clock import VirtualClock
from ..simulation.runtime import SimulationRuntime
from ..simulation.threaded import ThreadedCWFDirector
from ..stafilos.abstract_scheduler import AbstractScheduler
from ..stafilos.schedulers import (
    AdaptiveScheduler,
    FIFOScheduler,
    QuantumPriorityScheduler,
    RateBasedScheduler,
    RoundRobinScheduler,
)
from ..stafilos.scwf_director import SCWFDirector
from .configs import default_cost_model, ExperimentConfig, SchedulerSpec


@dataclass
class RunResult:
    """Outcome of a single seed's run."""

    series: ResponseTimeSeries
    tolls: int
    alerts: int
    accidents_recorded: int
    internal_firings: int
    backlog_at_end: int
    #: Faults injected by the ``--inject-faults`` harness (0 = clean run).
    injected_faults: int = 0
    #: Failed firing attempts across every actor (includes retried ones).
    failures: int = 0
    #: Items left in the director's dead-letter queue at the end.
    dead_letters: int = 0


@dataclass
class ExperimentResult:
    """Averaged outcome of one experiment configuration."""

    config: ExperimentConfig
    series: ResponseTimeSeries
    runs: list[RunResult] = field(default_factory=list)

    @property
    def label(self) -> str:
        return self.config.label

    @property
    def thrash_time_s(self) -> Optional[int]:
        return self.series.thrash_time_s()

    def thrash_input_rate(self) -> Optional[float]:
        """Input reports/s at the thrash point (None = never thrashed)."""
        thrash = self.thrash_time_s
        if thrash is None:
            return None
        workload = self.config.workload
        ramp_s = workload.duration_s * workload.ramp_fraction
        fraction = min(thrash / ramp_s, 1.0)
        return workload.peak_rate * fraction

    def mean_pre_thrash_s(self) -> float:
        return self.series.mean_before(self.thrash_time_s)


def make_scheduler(spec: SchedulerSpec) -> AbstractScheduler:
    """Instantiate the STAFiLOS policy described by *spec*."""
    if spec.kind == "QBS":
        return QuantumPriorityScheduler(
            basic_quantum_us=spec.quantum_us or 500,
            source_interval=spec.source_interval,
        )
    if spec.kind == "RR":
        return RoundRobinScheduler(
            slice_us=spec.quantum_us or 10_000,
            source_interval=spec.source_interval,
        )
    if spec.kind == "RB":
        return RateBasedScheduler()
    if spec.kind == "FIFO":
        return FIFOScheduler()
    if spec.kind == "ADAPT":
        if spec.quantum_us is not None:
            return AdaptiveScheduler(initial_quantum_us=spec.quantum_us)
        return AdaptiveScheduler()
    raise SimulationError(f"unknown scheduler kind {spec.kind!r}")


def checkpoint_meta(config: ExperimentConfig, seed: int) -> dict:
    """The manifest metadata ``repro resume`` rebuilds an engine from.

    Everything *structural* must be re-derivable from this record: the
    scheduler spec, the full workload configuration (accident scripts
    included), the seed pair and the fault configuration.  The snapshot
    payload carries only data, so a wrong rebuild would diverge — the
    structure fingerprint check catches gross mismatches, this metadata
    prevents them.
    """
    return {
        "scheduler": {
            "kind": config.scheduler.kind,
            "quantum_us": config.scheduler.quantum_us,
            "source_interval": config.scheduler.source_interval,
        },
        "workload": asdict(config.workload),
        "seed": seed,
        "cost_seed": config.cost_seed,
        "bucket_s": config.bucket_s,
        "fault_spec": config.fault_spec,
        "checkpoint_every_s": config.checkpoint_every_s,
        "checkpoint_retain": config.checkpoint_retain,
        "qos": None if config.qos is None else asdict(config.qos),
        "fuse": config.fuse,
        "frontier": config.frontier,
        "lateness": config.lateness,
    }


def config_from_meta(
    meta: dict, checkpoint_dir: Optional[str] = None
) -> tuple[ExperimentConfig, int]:
    """Rebuild ``(ExperimentConfig, seed)`` from manifest metadata."""
    from ..linearroad.generator import AccidentScript, WorkloadConfig
    from ..overload import QoSPolicy

    try:
        # Older manifests predate QoS: default to uncontrolled.  Ones
        # written while the firing loop still had a quantum knob carry
        # two since-removed policy fields steering it (and a top-level
        # ``train_size``); all three were output-invariant, so resume
        # drops whatever the policy no longer declares.
        qos = None
        if meta.get("qos") is not None:
            known = {f.name for f in fields(QoSPolicy)}
            qos = QoSPolicy(
                **{
                    key: value
                    for key, value in dict(meta["qos"]).items()
                    if key in known
                }
            )
        workload_raw = dict(meta["workload"])
        # Older manifests predate out-of-order delivery: in order.
        workload_raw.setdefault("disorder_s", 0.0)
        workload_raw["accidents"] = tuple(
            AccidentScript(**dict(script))
            for script in workload_raw.get("accidents", ())
        )
        workload_raw["congestion_segments"] = tuple(
            workload_raw.get("congestion_segments", ())
        )
        spec = SchedulerSpec(
            kind=meta["scheduler"]["kind"],
            quantum_us=meta["scheduler"]["quantum_us"],
            source_interval=meta["scheduler"]["source_interval"],
        )
        config = ExperimentConfig(
            scheduler=spec,
            workload=WorkloadConfig(**workload_raw),
            seeds=(int(meta["seed"]),),
            bucket_s=int(meta["bucket_s"]),
            cost_seed=int(meta["cost_seed"]),
            fault_spec=meta.get("fault_spec"),
            checkpoint_dir=checkpoint_dir,
            checkpoint_every_s=meta.get("checkpoint_every_s"),
            checkpoint_retain=int(meta.get("checkpoint_retain", 3)),
            qos=qos,
            # Older manifests predate fusion: default to unfused.
            fuse=bool(meta.get("fuse", False)),
            # Older manifests predate frontiers: default to untracked.
            frontier=meta.get("frontier"),
            lateness=meta.get("lateness"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"manifest metadata cannot rebuild an experiment: {exc}"
        ) from exc
    return config, int(meta["seed"])


def _build_engine(
    config: ExperimentConfig,
    seed: int,
    window_timeouts: bool = True,
) -> tuple[object, LinearRoadSystem, VirtualClock, list]:
    """Rebuild the full engine *structure* for one config + seed.

    This is the deterministic structural rebuild the checkpoint design
    relies on: the same config + seed always produces a workflow whose
    fingerprint matches the one recorded in a snapshot, so restore can
    apply the data in place.

    ``window_timeouts=False`` strips the window-formation timeouts
    before the director attaches, running the workflow event-time pure
    — the mode sharded execution uses, and what its single-process
    oracle must therefore use too (timeouts fire on engine time, which
    is placement-dependent).  Timeouts are fingerprint-neutral, so
    either mode restores snapshots taken in the same mode.
    """
    workload = LinearRoadWorkload(replace(config.workload, seed=seed))
    disorder_us = int(config.workload.disorder_s * US_PER_S)
    if disorder_us > 0 and config.frontier is None:
        raise SimulationError(
            "out-of-order delivery (disorder_s > 0) needs frontier "
            "progress tracking; set frontier='track' or 'close' "
            "(--out-of-order on the CLI)"
        )
    if config.lateness is not None and config.frontier != "close":
        raise SimulationError(
            "a lateness policy only takes effect when the frontier "
            "closes windows; set frontier='close' (--out-of-order close)"
        )
    system: LinearRoadSystem = build_linear_road(
        workload.arrivals(),
        # Frontier-closing runs pace the source through the reorder pump
        # even with zero disorder: it releases one event timestamp per
        # pump, so frontier closures interleave between arrivals at
        # fixed event-time positions.  The plain in-order pump delivers
        # every due arrival in one train — under a burst the train can
        # straddle a pane boundary, admitting an event before the
        # closure it should follow, at clock-dependent (cost-model-
        # dependent) positions that an out-of-order run cannot mirror.
        out_of_order=disorder_us > 0 or config.frontier == "close",
        disorder_us=disorder_us,
    )
    if not window_timeouts:
        strip_window_timeouts(system.workflow)
    clock = VirtualClock()
    cost_model = default_cost_model(seed=config.cost_seed + seed)
    error_policy = config.error_policy
    if error_policy is None:
        # Chaos runs default to a keep-running policy; clean runs fail-stop.
        error_policy = (
            FaultPolicy.resilient()
            if config.fault_spec
            else FaultPolicy(propagate=True)
        )
    if config.scheduler.kind == "PNCWF":
        if config.qos is not None:
            raise SimulationError(
                "QoS overload control requires a STAFiLOS scheduler; "
                "the thread-based PNCWF director has no shedding hooks"
            )
        if config.fuse:
            raise SimulationError(
                "operator-chain fusion requires the SCWF director; "
                "the thread-based PNCWF engine fires actors on their "
                "own threads and has no composed-firing path"
            )
        if config.frontier is not None:
            raise SimulationError(
                "frontier progress tracking requires the SCWF director; "
                "the thread-based PNCWF engine has no token-accounting "
                "hooks"
            )
        director = ThreadedCWFDirector(
            clock, cost_model, error_policy=error_policy
        )
    else:
        if config.fuse:
            # Rewrite the workflow before the director sees it, so
            # attach/initialize wire the fused chains like any actor.
            fuse_workflow(system.workflow)
        director = SCWFDirector(
            make_scheduler(config.scheduler),
            clock,
            cost_model,
            error_policy=error_policy,
            train_size=config.train_size,
        )
        if config.qos is not None:
            controller = director.apply_qos(config.qos)
            # Observe the paper's headline latency: the 5 s toll
            # notification deadline at the TollNotification sink.
            controller.attach_latency_probe(
                lambda sink=system.toll_out: sink.response_times_us
            )
        if config.frontier is not None:
            from ..frontier import FrontierTracker, LatenessPolicy

            director.enable_frontier(
                FrontierTracker(mode=config.frontier),
                LatenessPolicy.parse(config.lateness)
                if config.lateness is not None
                else None,
            )
    director.attach(system.workflow)
    injectors = (
        install_faults(system.workflow, config.fault_spec)
        if config.fault_spec
        else []
    )
    return director, system, clock, injectors


def restore_engine(
    checkpoint_dir: str,
) -> tuple[object, LinearRoadSystem, CheckpointManifest, ExperimentConfig, int]:
    """Rebuild + restore an engine from a checkpoint directory (no run).

    Used by ``repro deadletter`` and other inspection paths that need
    the restored engine state without continuing the simulation.
    """
    store = DirectoryCheckpointStore(checkpoint_dir)
    found = store.latest()
    if found is None:
        raise CheckpointError(
            f"no valid snapshot found in {checkpoint_dir!r}"
        )
    manifest, _ = found
    config, seed = config_from_meta(manifest.meta, checkpoint_dir)
    director, system, _, _ = _build_engine(config, seed)
    director.initialize_all()
    restore_latest(director, store)
    return director, system, manifest, config, seed


def _execute_seed(
    config: ExperimentConfig,
    seed: int,
    resume: bool = False,
    store: Optional[CheckpointStore] = None,
    replay_deadletters: bool = False,
    window_timeouts: bool = True,
    drain: bool = False,
) -> tuple[RunResult, object, LinearRoadSystem]:
    """Build + simulate one seed; returns (result, director, system).

    With ``store`` (or ``config.checkpoint_dir``) set, the run publishes
    wave-aligned snapshots every ``config.checkpoint_every_s`` engine
    seconds.  With ``resume=True`` the engine is rebuilt structurally
    from the config, the newest valid snapshot is applied in place, and
    the simulation continues to the original horizon — bit-identical to
    an uninterrupted run of the same config + seed.
    ``replay_deadletters=True`` additionally re-enqueues the restored
    dead-letter queue before continuing.
    """
    director, system, clock, injectors = _build_engine(
        config, seed, window_timeouts=window_timeouts
    )
    checkpointer: Optional[EngineCheckpointer] = None
    if store is None and config.checkpoint_dir is not None:
        store = DirectoryCheckpointStore(
            config.checkpoint_dir, retain=config.checkpoint_retain
        )
    if store is not None:
        every_us = (
            int(config.checkpoint_every_s * 1_000_000)
            if config.checkpoint_every_s is not None
            else None
        )
        checkpointer = EngineCheckpointer(
            director,
            store,
            every_us=every_us,
            meta=checkpoint_meta(config, seed),
        )
    if resume:
        if store is None:
            raise CheckpointError(
                "resume requested but no checkpoint store/dir configured"
            )
        director.initialize_all()
        manifest = restore_latest(director, store)
        if manifest is None:
            raise CheckpointError(
                "no valid snapshot found to resume from"
            )
        if checkpointer is not None:
            checkpointer.note_resumed(manifest)
        if replay_deadletters:
            from ..resilience import replay_dead_letters

            replay_dead_letters(director, clock.now_us)
    runtime = SimulationRuntime(director, clock, checkpointer=checkpointer)
    # ``drain=True`` processes everything admitted before stopping —
    # what out-of-order comparisons need, since a bounded-disorder
    # source still holds up to ``disorder_us`` of in-transit events
    # when the horizon arrives.
    runtime.run(config.workload.duration_s, drain=drain)
    series = ResponseTimeSeries.from_samples(
        system.toll_response_times_us,
        config.bucket_s,
        config.workload.duration_s,
    )
    result = RunResult(
        series=series,
        tolls=len(system.toll_out.items),
        alerts=len(system.accident_out.items),
        accidents_recorded=system.recorder.inserted,
        internal_firings=director.total_internal_firings,
        backlog_at_end=director.backlog(),
        injected_faults=sum(inj.injected for inj in injectors),
        failures=director.supervisor.total_failures,
        dead_letters=len(director.supervisor.dead_letters),
    )
    return result, director, system


def run_once(config: ExperimentConfig, seed: int) -> RunResult:
    """One seed: build workload + workflow, simulate, collect the series."""
    result, _, _ = _execute_seed(config, seed)
    return result


def run_sharded(
    config: ExperimentConfig,
    seed: int = 1,
    shards: int = 2,
    shard_key: str = "xway",
    chunk_s: int = 10,
    migrations=(),
):
    """One seed partitioned across *shards* worker processes.

    The harness entry point behind ``repro run --shards N``: delegates
    to :func:`repro.shard.run_sharded`, which partitions the seeded
    workload by *shard_key*, streams each logical shard's slice to a
    worker process over a credit-windowed pipe, and deterministically
    merges the sink outputs — bit-identical to :func:`run_once` on the
    same config and seed.  Returns a :class:`repro.shard.ShardedRunResult`.
    """
    from ..shard import run_sharded as _run_sharded

    return _run_sharded(
        config,
        seed=seed,
        shards=shards,
        shard_key=shard_key,
        chunk_s=chunk_s,
        migrations=migrations,
    )


def _execute_shard_resume(
    config: ExperimentConfig,
    seed: int,
    manifest: CheckpointManifest,
    store: CheckpointStore,
    checkpoint_dir: str,
) -> tuple[RunResult, object, LinearRoadSystem]:
    """Resume one *logical shard* from its per-worker checkpoint dir.

    The manifest's ``shard`` record identifies the slice: the engine is
    rebuilt with the full workload regenerated and *filtered* to the
    shard's key group (byte-identical to the slice the worker was fed
    over its pipe), the newest snapshot is applied in place, and the
    shard runs alone to the original horizon.
    """
    from ..shard.worker import build_shard_engine

    shard = manifest.shard or {}
    key_name = shard.get("key")
    group = shard.get("group")
    if key_name is None or group is None:
        raise CheckpointError(
            f"manifest shard record {shard!r} names no key/group"
        )
    from ..linearroad.workflow import shard_key_fn

    key_fn = shard_key_fn(key_name)
    workload = LinearRoadWorkload(replace(config.workload, seed=seed))
    arrivals = [
        pair for pair in workload.arrivals() if key_fn(pair[1]) == group
    ]
    engine = build_shard_engine(
        config,
        seed,
        key_name,
        group,
        all_groups=tuple(shard.get("groups", ())),
        arrivals=arrivals,
        checkpoint_path=checkpoint_dir,
    )
    engine.director.initialize_all()
    restored = restore_latest(engine.director, store)
    if restored is None:
        raise CheckpointError("no valid snapshot found to resume from")
    if engine.checkpointer is not None:
        engine.checkpointer.note_resumed(restored)
    engine.runtime.run(config.workload.duration_s)
    system = engine.system
    series = ResponseTimeSeries.from_samples(
        system.toll_response_times_us,
        config.bucket_s,
        config.workload.duration_s,
    )
    result = RunResult(
        series=series,
        tolls=len(system.toll_out.items),
        alerts=len(system.accident_out.items),
        accidents_recorded=system.recorder.inserted,
        internal_firings=engine.director.total_internal_firings,
        backlog_at_end=engine.director.backlog(),
        injected_faults=sum(inj.injected for inj in engine.injectors),
        failures=engine.director.supervisor.total_failures,
        dead_letters=len(engine.director.supervisor.dead_letters),
    )
    return result, engine.director, system


def resume_run(
    checkpoint_dir: str,
    replay_deadletters: bool = False,
) -> tuple[RunResult, object, LinearRoadSystem, CheckpointManifest]:
    """Resume a crashed run from the newest valid snapshot in a directory.

    Reads the manifest metadata to rebuild the exact engine structure
    (scheduler, workload, seeds), restores the snapshot's data onto it
    and simulates to the original horizon.  The resumed run keeps
    checkpointing into the same directory on the same engine-time grid.

    Manifests carrying a ``shard`` record (snapshots published by a
    shard worker under ``<dir>/shard-<group>/``) resume that logical
    shard alone: the workload is regenerated and filtered to the
    shard's key group, so the resumed slice matches what the worker
    was fed over its pipe.
    """
    store = DirectoryCheckpointStore(checkpoint_dir)
    found = store.latest()
    if found is None:
        raise CheckpointError(
            f"no valid snapshot found in {checkpoint_dir!r}"
        )
    manifest, _ = found
    config, seed = config_from_meta(manifest.meta, checkpoint_dir)
    store.retain = config.checkpoint_retain
    if manifest.shard is not None:
        result, director, system = _execute_shard_resume(
            config, seed, manifest, store, checkpoint_dir
        )
        return result, director, system, manifest
    result, director, system = _execute_seed(
        config,
        seed,
        resume=True,
        store=store,
        replay_deadletters=replay_deadletters,
    )
    return result, director, system, manifest


def run_traced(
    config: ExperimentConfig,
    seed: int = 1,
    tracer: Optional[RecordingTracer] = None,
) -> tuple[RunResult, object, RecordingTracer]:
    """One seed with a :class:`RecordingTracer` installed engine-wide.

    Returns ``(result, director, tracer)`` so callers can export both the
    trace and a Prometheus snapshot of the director's statistics registry.
    """
    tracer = tracer if tracer is not None else RecordingTracer()
    with use_tracer(tracer):
        result, director, _ = _execute_seed(config, seed)
    return result, director, tracer


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """All seeds of one configuration, averaged bucket-wise."""
    runs = [run_once(config, seed) for seed in config.seeds]
    merged = runs[0].series.merged_with(*(run.series for run in runs[1:]))
    return ExperimentResult(config, merged, runs)


def result_to_dict(result: ExperimentResult) -> dict:
    """A JSON-serializable record of one experiment (artifact dumps)."""
    return {
        "label": result.label,
        "scheduler": {
            "kind": result.config.scheduler.kind,
            "quantum_us": result.config.scheduler.quantum_us,
            "source_interval": result.config.scheduler.source_interval,
        },
        "workload": {
            "duration_s": result.config.workload.duration_s,
            "peak_rate": result.config.workload.peak_rate,
            "l_rating": result.config.workload.l_rating,
        },
        "seeds": list(result.config.seeds),
        "series": [
            {"t_s": t, "mean_response_s": r, "samples": n}
            for t, r, n in result.series.points
        ],
        "thrash_time_s": result.thrash_time_s,
        "thrash_input_rate": result.thrash_input_rate(),
        "mean_pre_thrash_s": result.mean_pre_thrash_s(),
        "runs": [
            {
                "tolls": run.tolls,
                "alerts": run.alerts,
                "accidents_recorded": run.accidents_recorded,
                "internal_firings": run.internal_firings,
                "backlog_at_end": run.backlog_at_end,
                "injected_faults": run.injected_faults,
                "failures": run.failures,
                "dead_letters": run.dead_letters,
            }
            for run in result.runs
        ],
    }


def save_results(results: list[ExperimentResult], path) -> None:
    """Dump experiment results as JSON (regeneratable evaluation record)."""
    import json
    from pathlib import Path

    payload = [result_to_dict(result) for result in results]
    Path(path).write_text(json.dumps(payload, indent=2))

"""Experiment runner: one config -> one engine -> averaged response times.

:func:`build_engine` is the only place an :class:`ExperimentConfig`
becomes a running thing: the Linear Road workflow over an arrival
schedule, a director (SCWF under a STAFiLOS policy, or the simulated
thread-based PNCWF), virtual clock, calibrated cost model, the optional
QoS controller, frontier tracker, fault injectors and checkpointer, and
the runtime that drives them.  ``run_once``, ``repro resume``, the shard
worker, live migration's ``adopt`` and the sharded run's single-process
oracle all call it, so a configuration is validated
(:meth:`ExperimentConfig.validate`) and wired the same way wherever the
engine is placed; what a *logical shard* needs differently is an
argument of it, not a second builder.

The runners below it simulate a fresh engine per seed and return the
bucketed "Response Time at TollNotification" series the paper's figures
plot — averaged over the seeds, as the paper averages its three runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Optional, Sequence, Union

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
from ..frontier import FrontierTracker, LatenessPolicy
from ..fusion import fuse_workflow
from ..linearroad.generator import LinearRoadWorkload
from ..linearroad.metrics import ResponseTimeSeries
from ..linearroad.workflow import (
    build_linear_road,
    LinearRoadSystem,
    shard_key_fn,
)
from ..observability import RecordingTracer, use_tracer
from ..resilience import FaultPolicy, install_faults, replay_dead_letters
from ..shard.codec import ColumnarBatch
from ..shard.routing import canonical_run_traces, shard_salt, shard_seed
from ..simulation.clock import VirtualClock
from ..simulation.runtime import SimulationRuntime
from ..simulation.threaded import ThreadedCWFDirector
from ..stafilos.abstract_scheduler import AbstractScheduler
from ..stafilos.schedulers import (
    FIFOScheduler,
    QuantumPriorityScheduler,
    RateBasedScheduler,
    RoundRobinScheduler,
)
from ..stafilos.scwf_director import SCWFDirector
from .configs import (
    default_cost_model,
    ExperimentConfig,
    from_record,
    RUN_LOCAL_FIELDS,
    SchedulerSpec,
)


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


def checkpoint_meta(config: ExperimentConfig, seed: int) -> dict:
    """The manifest metadata ``repro resume`` rebuilds an engine from.

    Everything *structural* must be re-derivable from this record: the
    scheduler spec, the full workload configuration (accident scripts
    included), the seed pair and the fault configuration.  The snapshot
    payload carries only data, so a wrong rebuild would diverge — the
    structure fingerprint check catches gross mismatches, this metadata
    prevents them.  It is every :class:`ExperimentConfig` field but the
    :data:`RUN_LOCAL_FIELDS`, plus the run's ``seed``.
    """
    meta = {}
    for f in fields(config):
        if f.name not in RUN_LOCAL_FIELDS:
            value = getattr(config, f.name)
            meta[f.name] = asdict(value) if is_dataclass(value) else value
    meta["seed"] = seed
    return meta


def config_from_meta(
    meta: dict, checkpoint_dir: Optional[str] = None
) -> tuple[ExperimentConfig, int]:
    """Rebuild ``(ExperimentConfig, seed)`` from manifest metadata."""
    try:
        seed = int(meta["seed"])
        config = from_record(
            ExperimentConfig,
            {
                key: value
                for key, value in meta.items()
                if key not in RUN_LOCAL_FIELDS
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"manifest metadata cannot rebuild an experiment: {exc}"
        ) from exc
    return replace(config, seeds=(seed,), checkpoint_dir=checkpoint_dir), seed


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
    raise SimulationError(f"unknown scheduler kind {spec.kind!r}")


@dataclass
class Engine:
    """One assembled engine, and the verbs its drivers use on it."""

    config: ExperimentConfig
    director: Any
    system: LinearRoadSystem
    clock: VirtualClock
    runtime: SimulationRuntime
    checkpointer: Optional[EngineCheckpointer]
    injectors: list
    #: The logical shard this engine is (``{"key", "group", "groups"}``,
    #: as its manifests record it); ``None`` for a whole-workload engine.
    shard: Optional[dict] = None

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self, drain: bool = False) -> None:
        """Simulate to the configured horizon.

        ``drain=True`` processes everything admitted before stopping —
        what out-of-order comparisons need, since a bounded-disorder
        source still holds up to ``disorder_us`` of in-transit events
        when the horizon arrives.
        """
        self.runtime.run(self.config.workload.duration_s, drain=drain)

    def restore(self, replay_deadletters: bool = False) -> CheckpointManifest:
        """Apply the store's newest valid snapshot onto the fresh engine.

        The engine then continues to the original horizon bit-identically
        to an uninterrupted run, checkpointing on the same engine-time
        grid.  ``replay_deadletters=True`` additionally re-enqueues the
        restored dead-letter queue.
        """
        if self.checkpointer is None:
            raise CheckpointError(
                "resume requested but no checkpoint store/dir configured"
            )
        self.director.initialize_all()
        manifest = restore_latest(self.director, self.checkpointer.store)
        if manifest is None:
            raise CheckpointError("no valid snapshot found to resume from")
        self.checkpointer.note_resumed(manifest)
        if replay_deadletters:
            replay_dead_letters(self.director, self.clock.now_us)
        return manifest

    def feed(
        self, arrivals: Union[Sequence[tuple[int, Any]], ColumnarBatch]
    ) -> None:
        """Append one chunk of arrivals to the source.

        Accepts either the classic row-tuple list or a decoded
        :class:`~repro.shard.codec.ColumnarBatch`, which is handed to
        the source column-wise — no intermediate tuple list is built.
        """
        if not arrivals:
            return
        if isinstance(arrivals, ColumnarBatch):
            self.system.source.feed_columns(
                arrivals.ts, arrivals.values, arrivals.event_ts
            )
        else:
            self.system.source.feed(arrivals)

    def run_to(self, watermark_us: int) -> None:
        """Advance the virtual clock to the watermark."""
        self.runtime.run(watermark_us / US_PER_S)

    def drain(self, horizon_us: int) -> None:
        """Process everything admitted, past the horizon if needed."""
        self.runtime.run(horizon_us / US_PER_S, drain=True)

    def close_frontier(self, up_to_us: int) -> int:
        """Apply the coordinator's merged frontier to timed windows."""
        if self.director.frontier is None:
            return 0
        return self.director.close_frontier_windows(up_to_us)

    def frontier_bound(self) -> Optional[int]:
        """This engine's local progress bound for the coordinator merge."""
        if self.director.frontier is None:
            return None
        return self.director.frontier_bound()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """The run counters of :class:`RunResult`, read off the engine."""
        system, director = self.system, self.director
        return {
            "tolls": len(system.toll_out.items),
            "alerts": len(system.accident_out.items),
            "accidents_recorded": system.recorder.inserted,
            "internal_firings": director.total_internal_firings,
            "backlog_at_end": director.backlog(),
            "injected_faults": sum(inj.injected for inj in self.injectors),
            "failures": director.supervisor.total_failures,
            "dead_letters": len(director.supervisor.dead_letters),
        }

    def run_result(self) -> RunResult:
        """The seed's outcome, bucketed response-time series included."""
        return RunResult(
            series=ResponseTimeSeries.from_samples(
                self.system.toll_response_times_us,
                self.config.bucket_s,
                self.config.workload.duration_s,
            ),
            **self.counters(),
        )

    def result(self) -> dict[str, Any]:
        """A shard's report to the coordinator: the run counters plus the
        canonical traces and raw response samples its merge needs."""
        return dict(
            self.counters(),
            group=self.shard["group"],
            traces=canonical_run_traces(self.system),
            checkpoints=(
                0
                if self.checkpointer is None
                else self.checkpointer.checkpoints_taken
            ),
            toll_response_times_us=list(self.system.toll_response_times_us),
        )


def build_engine(
    config: ExperimentConfig,
    seed: int,
    *,
    shard: Optional[dict] = None,
    arrivals: Optional[Sequence[tuple[int, Any]]] = None,
    store: Optional[CheckpointStore] = None,
    window_timeouts: bool = True,
) -> Engine:
    """Assemble the engine for one config + seed (structure only).

    This is the deterministic structural rebuild the checkpoint design
    relies on: the same arguments always produce a workflow whose
    fingerprint matches the one recorded in a snapshot, so restore can
    apply the data in place.

    *shard* (``{"key", "group", "groups"}``, the record its manifests
    carry) builds one logical shard: cost-model and fault-injection
    streams derive from the shard's name, the frontier tracker is
    externally driven, formation timeouts are stripped and the
    checkpoint store is a ``shard-<group>`` subdirectory.  *arrivals*
    replaces the generated schedule — empty for a pipe-fed worker;
    ``None`` generates the seeded workload, filtered to the shard's key
    group when *shard* is set (byte-identical to the slice a worker is
    fed).  *store* overrides the directory ``config.checkpoint_dir``
    names.  ``window_timeouts=False`` strips the window-formation
    timeouts (they fire on engine time, which is placement-dependent)
    before the director attaches; shard engines always run that way, and
    so must the single-process oracle they are compared with.  Timeouts
    are fingerprint-neutral: either mode restores its own snapshots.
    """
    config.validate(sharded=shard is not None)
    cost_seed = config.cost_seed + seed
    fault_salt = 0
    if shard is not None:
        # Both streams derive from the shard's *key value*, so a shard
        # computes the same answer wherever (and beside whatever) it runs.
        name = f"shard:{shard['key']}={shard['group']}"
        cost_seed = shard_seed(cost_seed, name)
        fault_salt = shard_salt(name)
        window_timeouts = False
    if arrivals is None:
        arrivals = LinearRoadWorkload(
            replace(config.workload, seed=seed)
        ).arrivals()
        if shard is not None:
            key_fn = shard_key_fn(shard["key"])
            arrivals = [
                pair for pair in arrivals if key_fn(pair[1]) == shard["group"]
            ]
    disorder_us = int(config.workload.disorder_s * US_PER_S)
    system = build_linear_road(
        arrivals,
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
    cost_model = default_cost_model(seed=cost_seed)
    error_policy = config.error_policy
    if error_policy is None:
        # Chaos runs default to a keep-running policy; clean runs fail-stop.
        error_policy = (
            FaultPolicy.resilient()
            if config.fault_spec
            else FaultPolicy(propagate=True)
        )
    if config.scheduler.kind == "PNCWF":
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
            # Observe the paper's headline latency: the 5 s toll
            # notification deadline at the TollNotification sink.
            director.apply_qos(config.qos).attach_latency_probe(
                lambda sink=system.toll_out: sink.response_times_us
            )
        if config.frontier is not None:
            director.enable_frontier(
                # A shard never self-closes on its local frontier:
                # closure arrives only as the coordinator's merged
                # minimum, so every placement sees the same sequence.
                FrontierTracker(
                    mode=config.frontier, external=shard is not None
                ),
                None
                if config.lateness is None
                else LatenessPolicy.parse(config.lateness),
            )
    director.attach(system.workflow)
    injectors = (
        install_faults(system.workflow, config.fault_spec, fault_salt)
        if config.fault_spec
        else []
    )
    if store is None and config.checkpoint_dir is not None:
        path = Path(config.checkpoint_dir)
        if shard is not None:
            # Each shard owns a subdirectory of the run's checkpoint dir.
            path /= f"shard-{shard['group']}"
        store = DirectoryCheckpointStore(path, retain=config.checkpoint_retain)
    checkpointer = None
    if store is not None:
        checkpointer = EngineCheckpointer(
            director,
            store,
            every_us=(
                None
                if config.checkpoint_every_s is None
                else int(config.checkpoint_every_s * US_PER_S)
            ),
            meta=checkpoint_meta(config, seed),
            shard=shard,
        )
    runtime = SimulationRuntime(director, clock, checkpointer=checkpointer)
    return Engine(
        config, director, system, clock, runtime, checkpointer, injectors,
        shard,
    )


def _latest_manifest(
    checkpoint_dir: str,
) -> tuple:
    """The directory's ``(store, newest valid manifest, config, seed)`` —
    the experiment the manifest's metadata describes."""
    store = DirectoryCheckpointStore(checkpoint_dir)
    found = store.latest()
    if found is None:
        raise CheckpointError(
            f"no valid snapshot found in {checkpoint_dir!r}"
        )
    manifest = found[0]
    shard = manifest.shard
    if shard is not None and None in (shard.get("key"), shard.get("group")):
        raise CheckpointError(
            f"manifest shard record {shard!r} names no key/group"
        )
    config, seed = config_from_meta(manifest.meta, checkpoint_dir)
    store.retain = config.checkpoint_retain
    return store, manifest, config, seed


def restore_engine(
    checkpoint_dir: str,
) -> tuple[object, LinearRoadSystem, CheckpointManifest, ExperimentConfig, int]:
    """Rebuild + restore an engine from a checkpoint directory (no run).

    Used by ``repro deadletter`` and other inspection paths that need
    the restored engine state without continuing the simulation.
    """
    store, manifest, config, seed = _latest_manifest(checkpoint_dir)
    engine = build_engine(config, seed, shard=manifest.shard, store=store)
    engine.restore()
    return engine.director, engine.system, manifest, config, seed


def _execute_seed(
    config: ExperimentConfig,
    seed: int,
    resume: bool = False,
    store: Optional[CheckpointStore] = None,
    replay_deadletters: bool = False,
    drain: bool = False,
    shard: Optional[dict] = None,
) -> tuple[RunResult, object, LinearRoadSystem]:
    """Build + simulate one seed; returns (result, director, system).

    With ``store`` (or ``config.checkpoint_dir``) set, the run publishes
    wave-aligned snapshots every ``config.checkpoint_every_s`` engine
    seconds.  With ``resume=True`` the newest valid snapshot is applied
    onto the rebuilt engine first (:meth:`Engine.restore`) and the
    simulation continues to the original horizon — bit-identical to an
    uninterrupted run of the same config + seed.  The remaining
    arguments are :func:`build_engine`'s and :meth:`Engine.run`'s.
    """
    engine = build_engine(config, seed, shard=shard, store=store)
    if resume:
        engine.restore(replay_deadletters)
    engine.run(drain=drain)
    return engine.run_result(), engine.director, engine.system


def run_once(config: ExperimentConfig, seed: int) -> RunResult:
    """One seed: build workload + workflow, simulate, collect the series."""
    result, _, _ = _execute_seed(config, seed)
    return result


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
    shard alone: the builder regenerates the workload and filters it to
    the shard's key group, so the resumed slice matches what the worker
    was fed over its pipe.
    """
    store, manifest, config, seed = _latest_manifest(checkpoint_dir)
    result, director, system = _execute_seed(
        config,
        seed,
        resume=True,
        store=store,
        replay_deadletters=replay_deadletters,
        shard=manifest.shard,
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
        "scheduler": asdict(result.config.scheduler),
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
                name: value
                for name, value in vars(run).items()
                if name != "series"
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

"""The shard worker: one process hosting one or more logical shards.

Each logical shard is a complete Linear Road engine — its own workflow
instance, SCWF director (scheduler, waves, windows, QoS, tracing and
checkpointing all intact), virtual clock and cost model — built over an
initially *empty* arrival schedule.  The coordinator streams the
shard's slice of the input over a ``multiprocessing`` pipe in
watermarked chunks; the worker feeds each chunk into the shard's source
and advances the shard's virtual clock to the watermark.  Because the
simulation runtime admits arrivals at their stamped times and
fast-forwards idle gaps, this chunked delivery is bit-identical to
preloading the full schedule.

Per-shard determinism: the cost-model jitter stream is seeded with
:func:`~repro.shard.routing.shard_seed` and fault injectors are salted
with :func:`~repro.shard.routing.shard_salt` — both derive from the
shard's *key value*, never from worker count or placement, so a shard
computes the same answer no matter where (or alongside what) it runs.
Window-formation timeouts — the one engine-time-driven windowing
mechanism, and therefore the one placement-dependent one — are stripped
at build time (:func:`repro.core.strip_window_timeouts`), so shard
workflows are *event-time pure*: panes close only when later events
cross their boundaries.

The message protocol (coordinator -> worker, replies in parentheses)::

    ("chunk", watermark_us, payload, frontier_us)
        feed + advance every hosted shard; ``payload`` is either a
        ``repro.shard.codec`` wire blob (bytes) or a raw ``{group:
        [(ts, value), ...]}`` dict, and ``frontier_us`` (None when
        frontier closure is off) is the coordinator's merged minimum
        frontier, applied to every shard's timed windows before the
        chunk runs.  The coordinator pipelines chunks — up to its
        credit window may be outstanding before any ack returns
            (-> ("ack", worker_id, watermark_us, backlogs, frontiers,
                 decode_us), one per chunk, in chunk order)
    ("dump", group)      extract a shard as a migration envelope
                                            (-> "state")
    ("adopt", group, envelope)  rebuild + restore a migrated shard
                                            (-> "adopted")
    ("finish", horizon_us, frontier_us)  run every shard to the horizon
                            (closing passed panes when ``frontier_us``
                            is set) and report canonical traces +
                            counters (-> "result")
    ("stop",)            exit the loop

Failures inside a handler are reported as ``("error", worker_id,
message)`` instead of killing the process, so the coordinator can
surface the underlying exception.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Dict, Hashable, Optional, Sequence, Tuple, Union

from ..checkpoint import DirectoryCheckpointStore, EngineCheckpointer
from ..core.exceptions import SimulationError
from ..core.timekeeper import US_PER_S
from ..core.windows import strip_window_timeouts
from ..fusion import fuse_workflow
from ..linearroad.workflow import build_linear_road, LinearRoadSystem
from ..resilience import FaultPolicy, install_faults
from ..simulation.clock import VirtualClock
from ..simulation.runtime import SimulationRuntime
from ..stafilos.scwf_director import SCWFDirector
from .codec import ColumnarBatch, decode_chunk
from .migration import apply_envelope, make_envelope
from .routing import canonical_run_traces, shard_salt, shard_seed


def _shard_name(key_name: str, group: Hashable) -> str:
    """The canonical shard label seeds and manifests are derived from."""
    return f"shard:{key_name}={group}"


@dataclass(frozen=True)
class ShardWorkerSpec:
    """Everything a worker process needs to build its shard engines.

    Plain picklable data: the experiment configuration, the run seed,
    the shard key name, the groups this worker initially hosts and the
    full group list (recorded in checkpoint manifests so resume knows
    the complete partition).
    """

    worker_id: int
    config: Any  # repro.harness.ExperimentConfig
    seed: int
    key_name: str
    groups: Tuple[Hashable, ...]
    all_groups: Tuple[Hashable, ...]


class ShardEngine:
    """One logical shard's complete engine inside a worker process."""

    def __init__(
        self,
        key_name: str,
        group: Hashable,
        director: SCWFDirector,
        system: LinearRoadSystem,
        clock: VirtualClock,
        runtime: SimulationRuntime,
        checkpointer: Optional[EngineCheckpointer],
        injectors: list,
    ):
        self.key_name = key_name
        self.group = group
        self.director = director
        self.system = system
        self.clock = clock
        self.runtime = runtime
        self.checkpointer = checkpointer
        self.injectors = injectors

    def feed(
        self, arrivals: Union[Sequence[Tuple[int, Any]], ColumnarBatch]
    ) -> None:
        """Append one chunk of arrivals to the shard's source.

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
        """Advance the shard's virtual clock to the watermark."""
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
        """This shard's local progress bound for the coordinator merge."""
        if self.director.frontier is None:
            return None
        return self.director.frontier_bound()

    def backlog(self) -> int:
        """Unprocessed items currently queued inside the shard engine."""
        return self.director.backlog()

    def result(self) -> Dict[str, Any]:
        """Canonical traces + run counters for the coordinator's merge."""
        system = self.system
        director = self.director
        return {
            "group": self.group,
            "traces": canonical_run_traces(system),
            "tolls": len(system.toll_out.items),
            "alerts": len(system.accident_out.items),
            "accidents_recorded": system.recorder.inserted,
            "internal_firings": director.total_internal_firings,
            "backlog_at_end": director.backlog(),
            "injected_faults": sum(
                injector.injected for injector in self.injectors
            ),
            "failures": director.supervisor.total_failures,
            "dead_letters": len(director.supervisor.dead_letters),
            "checkpoints": (
                0
                if self.checkpointer is None
                else self.checkpointer.checkpoints_taken
            ),
            "toll_response_times_us": list(
                system.toll_out.response_times_us
            ),
        }


def build_shard_engine(
    config: Any,
    seed: int,
    key_name: str,
    group: Hashable,
    all_groups: Sequence[Hashable] = (),
    arrivals: Sequence[Tuple[int, Any]] = (),
    checkpoint_path: Optional[Any] = None,
) -> ShardEngine:
    """Build one logical shard's engine (structure only, seeded data).

    Mirrors the harness's single-process engine builder, with three
    shard-specific twists: the arrival schedule starts as whatever the
    caller provides (empty for pipe-fed workers, the regenerated slice
    for checkpoint resume), the cost model and fault injectors draw
    per-shard seeded streams, and the checkpoint store — when the config
    enables checkpointing — lives in a ``shard-<group>`` subdirectory
    with the shard identity stamped on every manifest.
    """
    from ..harness.experiment import checkpoint_meta, make_scheduler

    if config.scheduler.kind == "PNCWF":
        raise SimulationError(
            "sharded execution requires an SCWF scheduler; the "
            "thread-based PNCWF director has no shard-safe loop"
        )
    from ..harness.configs import default_cost_model

    name = _shard_name(key_name, group)
    disorder_us = int(getattr(config.workload, "disorder_s", 0.0) * US_PER_S)
    frontier_mode = getattr(config, "frontier", None)
    system = build_linear_road(
        list(arrivals),
        # Frontier-closing shards pace the source through the reorder
        # pump even with zero disorder, matching the single-process
        # engine's release discipline (one event timestamp per pump).
        out_of_order=disorder_us > 0 or frontier_mode == "close",
        disorder_us=disorder_us,
    )
    # Sharded engines run event-time pure: window-formation timeouts
    # fire on engine time, and engine clocks are placement-dependent
    # (they advance with whatever shares the process).  Stripping them
    # before attach makes every pane close on event arrival only, so a
    # shard computes the same answer under any placement — and matches
    # the equally-stripped single-process oracle bit for bit.  With
    # frontier closure the timeouts are never armed (the director skips
    # deadline registration) and panes close on the coordinator's merged
    # frontier instead — equally placement-independent, since per-group
    # frontiers derive from each shard's own deterministic engine.
    if frontier_mode != "close":
        strip_window_timeouts(system.workflow)
    clock = VirtualClock()
    cost_model = default_cost_model(
        seed=shard_seed(config.cost_seed + seed, name)
    )
    error_policy = config.error_policy
    if error_policy is None:
        error_policy = (
            FaultPolicy.resilient()
            if config.fault_spec
            else FaultPolicy(propagate=True)
        )
    if config.fuse:
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
        controller.attach_latency_probe(
            lambda sink=system.toll_out: sink.response_times_us
        )
    if frontier_mode is not None:
        from ..frontier import FrontierTracker, LatenessPolicy

        # ``external=True``: a shard never self-closes on its local
        # frontier — closure arrives only as the coordinator's merged
        # minimum, so every placement sees the same closure sequence.
        director.enable_frontier(
            FrontierTracker(mode=frontier_mode, external=True),
            LatenessPolicy.parse(config.lateness)
            if getattr(config, "lateness", None) is not None
            else None,
        )
    director.attach(system.workflow)
    injectors = (
        install_faults(
            system.workflow,
            config.fault_spec,
            seed_salt=shard_salt(name),
        )
        if config.fault_spec
        else []
    )
    checkpointer: Optional[EngineCheckpointer] = None
    if checkpoint_path is None and config.checkpoint_dir is not None:
        # Each shard owns a subdirectory of the run's checkpoint dir;
        # ``checkpoint_path`` overrides it when a resume already points
        # at the shard directory itself.
        checkpoint_path = Path(config.checkpoint_dir) / f"shard-{group}"
    if checkpoint_path is not None:
        store = DirectoryCheckpointStore(
            checkpoint_path, retain=config.checkpoint_retain
        )
        every_us = (
            int(config.checkpoint_every_s * US_PER_S)
            if config.checkpoint_every_s is not None
            else None
        )
        checkpointer = EngineCheckpointer(
            director,
            store,
            every_us=every_us,
            meta=checkpoint_meta(config, seed),
            shard={
                "key": key_name,
                "group": group,
                "groups": list(all_groups),
            },
        )
    runtime = SimulationRuntime(director, clock, checkpointer=checkpointer)
    return ShardEngine(
        key_name,
        group,
        director,
        system,
        clock,
        runtime,
        checkpointer,
        injectors,
    )


def worker_main(conn: Any, spec: ShardWorkerSpec) -> None:
    """Entry point of one shard worker process.

    Builds an engine per assigned group, announces readiness, then
    serves the coordinator's message loop until ``("stop",)``.
    """
    engines: Dict[Hashable, ShardEngine] = {
        group: build_shard_engine(
            spec.config,
            spec.seed,
            spec.key_name,
            group,
            all_groups=spec.all_groups,
        )
        for group in spec.groups
    }
    conn.send(("ready", spec.worker_id, tuple(sorted(engines))))
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "stop":
            break
        try:
            if kind == "chunk":
                _, watermark_us, payload, frontier_us = message
                if not isinstance(payload, (bytes, bytearray, memoryview)):
                    raise SimulationError(
                        f"chunk payload is a {type(payload).__name__}, "
                        "not an SC1 blob"
                    )
                decode_start = perf_counter_ns()
                slices = decode_chunk(payload, now_us=watermark_us)
                decode_us = (perf_counter_ns() - decode_start) // 1000
                backlogs: Dict[Hashable, int] = {}
                frontiers: Dict[Hashable, Optional[int]] = {}
                for group in sorted(engines):
                    engine = engines[group]
                    engine.feed(slices.get(group, ()))
                    if frontier_us is not None:
                        # Graduated closure: each call closes one pane
                        # boundary, so drain the staged firings between
                        # rounds to let a closure's output reach any
                        # downstream pane before that pane closes too
                        # (run_to would no-op once the clock sits at
                        # the watermark).
                        while engine.close_frontier(frontier_us):
                            engine.drain(watermark_us)
                    engine.run_to(watermark_us)
                    backlogs[group] = engine.backlog()
                    frontiers[group] = engine.frontier_bound()
                # The echoed watermark returns the chunk's credit to
                # the coordinator's pipelined window.
                conn.send(
                    ("ack", spec.worker_id, watermark_us, backlogs,
                     frontiers, decode_us)
                )
            elif kind == "dump":
                _, group = message
                engine = engines.pop(group)
                conn.send(
                    ("state", spec.worker_id, group, make_envelope(engine))
                )
            elif kind == "adopt":
                _, group, envelope = message
                engine = build_shard_engine(
                    spec.config,
                    spec.seed,
                    spec.key_name,
                    group,
                    all_groups=spec.all_groups,
                )
                apply_envelope(engine, envelope)
                engines[group] = engine
                conn.send(("adopted", spec.worker_id, group))
            elif kind == "finish":
                _, horizon_us, frontier_us = message
                results = {}
                for group in sorted(engines):
                    engine = engines[group]
                    engine.run_to(horizon_us)
                    if frontier_us is not None:
                        # Final closure cascades: a closed pane's firing
                        # can feed a downstream timed window, so close
                        # and drain until no pane remains.
                        engine.drain(horizon_us)
                        while engine.close_frontier(frontier_us):
                            engine.drain(horizon_us)
                    results[group] = engine.result()
                conn.send(("result", spec.worker_id, results))
            else:
                conn.send(
                    (
                        "error",
                        spec.worker_id,
                        f"unknown shard message {kind!r}",
                    )
                )
        except Exception as exc:  # noqa: BLE001 - reported to coordinator
            # Name the chunk, so the coordinator reports which one was bad.
            where = f"chunk @{message[1]} us: " if kind == "chunk" else ""
            conn.send(
                (
                    "error",
                    spec.worker_id,
                    f"{where}{type(exc).__name__}: {exc}",
                )
            )
    conn.close()

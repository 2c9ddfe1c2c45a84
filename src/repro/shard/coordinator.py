"""The shard coordinator: partition, route, rebalance, merge.

The coordinator is the only process that sees the whole input stream.
It generates the seeded workload once, partitions the arrival schedule
by the shard key (:func:`~repro.shard.routing.partition_arrivals` — a
*filter* of the global schedule, so arrival timestamps stay
byte-identical to the single-process run), spawns N worker processes
each hosting its assigned logical shards, and streams the per-shard
slices over ``multiprocessing`` pipes in watermarked chunks.

The data plane is a **credit-based pipelined stream**: each worker has
a credit window of ``max_inflight`` chunks (:data:`DEFAULT_INFLIGHT`),
and the coordinator keeps sending — encoding the next chunk through
:mod:`repro.shard.codec` while workers chew on earlier ones — blocking
only when a window is full.  Acks return credits asynchronously and
carry the per-shard backlog + frontier telemetry of their chunk;
completed rounds are folded into the logs in watermark order, so the
telemetry stream reads exactly like the lockstep one
(``max_inflight=1``, which remains bit-identical by construction).
An ack has a deadline (:data:`ACK_DEADLINE_FLOOR_S`, scaled up by the
slowest ack seen): a wedged worker aborts the run with a diagnostic
instead of hanging it.
Chunked delivery itself is placement- and pacing-independent — the
simulation runtime admits arrivals at their stamped times — so *any*
in-flight depth and chunk grid produces the same merged output.

Two consumers do need the pipeline quiesced:

* **frontier closure** (``frontier="close"``): the merged minimum
  frontier applied to chunk N+1 is computed from every shard's ack of
  chunk N, so the run clamps the window to one chunk and barriers each
  round — the lockstep cadence *is* the frontier protocol;
* **live migration**: :meth:`ShardCoordinator.migrate_shard` drains the
  donor's and the target's credit windows before dumping state, so the
  snapshot covers exactly the chunks sent so far.

Every chunk acknowledgement carries the per-shard backlog of the worker,
giving the coordinator the live load picture an elastic policy needs.
The scripted :class:`~repro.shard.migration.ShardMigration` hook moves a
logical shard between workers mid-run by shipping a checkpoint snapshot —
no replay, and the final merged output is byte-identical to an
unmigrated run.

When all arrivals are delivered the workers run their shards to the
horizon and report canonical sink traces, which the coordinator merges
deterministically (:func:`~repro.shard.routing.merge_traces`) — the
merged trace is bit-identical to the canonical trace of a
single-process run of the same config + seed.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from dataclasses import dataclass, field, replace
from time import perf_counter, perf_counter_ns
from typing import Any, Deque, Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.exceptions import SimulationError
from ..core.statistics import StatisticsRegistry
from ..core.timekeeper import US_PER_S
from ..linearroad.generator import LinearRoadWorkload
from ..linearroad.workflow import shard_key_fn
from ..stafilos.scwf_director import _FAR_FUTURE
from .codec import encode_chunk
from .migration import ShardMigration
from .routing import (
    CanonicalRecord,
    merge_traces,
    partition_arrivals,
    ShardPlan,
)
from .worker import ShardWorkerSpec, worker_main

#: Credit-window depth: how many chunks may be outstanding per worker
#: before the coordinator waits for an ack.  ``1`` is the lockstep
#: barrier (what frontier-close runs clamp to, and the tests' oracle).
DEFAULT_INFLIGHT = 4

#: Ack deadline: a worker that sends no ack for
#: ``max(ACK_DEADLINE_FLOOR_S, ACK_DEADLINE_FACTOR * slowest ack wait so
#: far)`` seconds is wedged — the run is aborted instead of hanging.  A
#: worker's first ack pays its engine's warm-up and may have no measured
#: wait to scale from: it may take ``ACK_DEADLINE_FIRST_S``.
ACK_DEADLINE_FLOOR_S = 5.0
ACK_DEADLINE_FACTOR = 20
ACK_DEADLINE_FIRST_S = 100.0


@dataclass
class ShardedRunResult:
    """The merged outcome of one sharded Linear Road run."""

    #: Deterministically merged canonical toll-notification trace.
    toll_trace: List[CanonicalRecord]
    #: Deterministically merged canonical accident-alert trace.
    accident_trace: List[CanonicalRecord]
    tolls: int
    alerts: int
    accidents_recorded: int
    internal_firings: int
    injected_faults: int
    failures: int
    dead_letters: int
    checkpoints: int
    #: Worker process count the logical shards were multiplexed onto.
    workers: int
    #: The logical shard groups (sorted distinct shard-key values).
    groups: Tuple[Hashable, ...]
    #: Raw per-shard worker reports, keyed by group.
    per_shard: Dict[Hashable, Dict[str, Any]] = field(default_factory=dict)
    #: Per-chunk backlog telemetry: (watermark_us, {group: backlog}).
    backlog_log: List[Tuple[int, Dict[Hashable, int]]] = field(
        default_factory=list
    )
    #: Per-chunk merged-frontier telemetry (frontier closure runs only):
    #: (watermark_us, merged_frontier_us).
    frontier_log: List[Tuple[int, int]] = field(default_factory=list)
    #: Live migrations performed, as (engine_time_us, group, from, to).
    migrations: List[Tuple[int, Hashable, int, int]] = field(
        default_factory=list
    )
    #: Data-plane counters (``shard_bytes_sent``, ``shard_encode_us``,
    #: ``shard_peak_inflight``...) — a copy of the coordinator
    #: registry's ``engine_counters`` at the end of the run — plus
    #: ``shard_window``, the per-worker credit depth the run really used.
    transport: Dict[str, float] = field(default_factory=dict)

    def peak_backlog(self) -> int:
        """The largest per-shard backlog any chunk ack reported."""
        peak = 0
        for _, backlogs in self.backlog_log:
            for value in backlogs.values():
                peak = max(peak, value)
        return peak


#: The :class:`ShardedRunResult` fields that are the sum of the like-named
#: entry of every shard's report (``Engine.result()``).
_SUMMED_COUNTERS = (
    "tolls",
    "alerts",
    "accidents_recorded",
    "internal_firings",
    "injected_faults",
    "failures",
    "dead_letters",
    "checkpoints",
)


class ShardCoordinator:
    """Drives one sharded run over worker processes and pipes."""

    def __init__(
        self,
        config: Any,
        seed: int = 1,
        shards: int = 2,
        shard_key: str = "xway",
        chunk_s: int = 10,
        migrations: Sequence[ShardMigration] = (),
        start_method: Optional[str] = None,
        max_inflight: int = DEFAULT_INFLIGHT,
    ):
        # Refused here with the error a single-process run would raise,
        # before a worker is spawned to fail on it.
        config.validate(sharded=True)
        if shards < 1:
            raise SimulationError("--shards must be >= 1")
        if chunk_s < 1:
            raise SimulationError("the chunk interval must be >= 1 s")
        if max_inflight < 1:
            raise SimulationError("max_inflight must be >= 1")
        self.config = config
        self.seed = seed
        self.shards = shards
        self.shard_key = shard_key
        self.chunk_s = chunk_s
        self.max_inflight = max_inflight
        self.scripted_migrations = sorted(
            migrations, key=lambda m: m.at_s
        )
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
        self._ctx = multiprocessing.get_context(start_method)
        self.plan: Optional[ShardPlan] = None
        self._conns: List[Any] = []
        self._procs: List[Any] = []
        self.migrations_done: List[Tuple[int, Hashable, int, int]] = []
        #: Per-worker credit windows: watermarks sent but not yet acked.
        self._outstanding: List[Deque[int]] = []
        #: Per worker: its longest wait for an ack so far, in seconds
        #: (None until its first ack).
        self._ack_waits: List[Optional[float]] = []
        #: Chunk rounds awaiting acks: watermark -> [remaining worker
        #: count, merged backlogs, merged frontier bounds].
        self._rounds: Dict[int, list] = {}
        #: Send order of rounds, so telemetry folds in watermark order.
        self._round_order: Deque[int] = deque()
        #: Data-plane counters, surfaced through ``snapshot()`` (and
        #: therefore the Prometheus exporter) under ``__engine__``.
        self.statistics = StatisticsRegistry()
        self.statistics.engine_counters.update(
            shard_bytes_sent=0,
            shard_chunks_sent=0,
            shard_chunks_inflight=0,
            shard_peak_inflight=0,
            shard_encode_us=0,
            shard_decode_us=0,
        )

    # ------------------------------------------------------------------
    def _recv(self, worker: int, expected: str) -> tuple:
        """Receive one reply from *worker*, surfacing worker errors.

        A worker that died without reporting (OOM-killed, segfaulted,
        ``kill -9``...) closes its pipe end; the raw ``EOFError`` /
        ``BrokenPipeError`` is translated into a :class:`SimulationError`
        naming the worker and its exit code, after reaping the process.
        """
        try:
            message = self._conns[worker].recv()
        except (EOFError, OSError) as exc:
            exit_code: Optional[int] = None
            if worker < len(self._procs):
                process = self._procs[worker]
                process.join(timeout=5)
                exit_code = process.exitcode
            raise SimulationError(
                f"shard worker {worker} died mid-run (pipe closed while "
                f"awaiting {expected!r}; exit code {exit_code})"
            ) from exc
        if message[0] == "error":
            raise SimulationError(
                f"shard worker {worker} failed: {message[2]}"
            )
        if message[0] != expected:
            raise SimulationError(
                f"shard worker {worker} sent {message[0]!r} "
                f"(expected {expected!r})"
            )
        return message

    def _spawn(self, plan: ShardPlan) -> None:
        """Start one worker process per plan slot and await readiness."""
        for worker_id in range(plan.workers):
            parent, child = self._ctx.Pipe()
            spec = ShardWorkerSpec(
                worker_id=worker_id,
                config=self.config,
                seed=self.seed,
                key_name=self.shard_key,
                groups=plan.groups_of(worker_id),
                all_groups=plan.groups,
            )
            process = self._ctx.Process(
                target=worker_main, args=(child, spec), daemon=True
            )
            process.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(process)
        self._outstanding = [deque() for _ in range(plan.workers)]
        self._ack_waits = [None] * plan.workers
        self._rounds = {}
        self._round_order = deque()
        for worker_id in range(plan.workers):
            self._recv(worker_id, "ready")

    # ------------------------------------------------------------------
    # Credit accounting
    # ------------------------------------------------------------------
    def _inflight_total(self) -> int:
        return sum(len(window) for window in self._outstanding)

    def _drain_one_ack(self, worker: int) -> None:
        """Block for one ack from *worker* and return its credit.

        Acks arrive over a FIFO pipe, so they match the head of the
        worker's credit window; the echoed watermark is checked anyway
        — a mismatch means the transport invariant broke.  A worker silent
        past the ack deadline (stopped, deadlocked...) is killed, so the
        shutdown path can reap it, and reported with the watermark of its
        oldest un-acked chunk.
        """
        own = self._ack_waits[worker]
        deadline_s = ACK_DEADLINE_FIRST_S if own is None else max(
            ACK_DEADLINE_FLOOR_S,
            ACK_DEADLINE_FACTOR * max(w or 0.0 for w in self._ack_waits),
        )
        started = perf_counter()
        if not self._conns[worker].poll(deadline_s):
            process = self._procs[worker]
            process.kill()
            raise SimulationError(
                f"shard worker {worker} (pid {process.pid}) sent no ack "
                f"within the {deadline_s:.1f} s deadline; its oldest "
                f"un-acked chunk has watermark "
                f"{self._outstanding[worker][0]} us (worker killed)"
            )
        self._ack_waits[worker] = max(own or 0.0, perf_counter() - started)
        message = self._recv(worker, "ack")
        _, _, watermark_us, backlogs, frontiers, decode_us = message
        expected = self._outstanding[worker].popleft()
        if watermark_us != expected:
            raise SimulationError(
                f"shard worker {worker} acked chunk {watermark_us} "
                f"out of order (expected {expected})"
            )
        entry = self._rounds[watermark_us]
        entry[0] -= 1
        entry[1].update(backlogs)
        entry[2].update(frontiers)
        counters = self.statistics.engine_counters
        counters["shard_decode_us"] += decode_us
        counters["shard_chunks_inflight"] = self._inflight_total()

    def _drain_ready_acks(self) -> None:
        """Consume every ack already sitting in the pipes (non-blocking)."""
        for worker, window in enumerate(self._outstanding):
            while window and self._conns[worker].poll(0):
                self._drain_one_ack(worker)

    def _drain_all_acks(self, workers: Optional[Sequence[int]] = None) -> None:
        """Block until the given credit windows (default: all) are empty."""
        if not self._outstanding:
            return
        if workers is None:
            workers = range(len(self._outstanding))
        for worker in workers:
            while self._outstanding[worker]:
                self._drain_one_ack(worker)

    # ------------------------------------------------------------------
    def migrate_shard(
        self, group: Hashable, to_worker: int, now_us: int = 0
    ) -> None:
        """Move one logical shard between workers, live, without replay.

        The rebalancing primitive: quiesce the donor's and the target's
        credit windows (so the snapshot reflects exactly the chunks
        sent so far), snapshot the shard's engine on its current worker
        (``dump``), ship the envelope through the coordinator, rebuild +
        restore it on the target (``adopt``) and repoint the routing
        plan.  Subsequent chunks flow to the new worker; the shard's
        state — clock, queues, windows, RNGs — continues bit-identically.
        """
        assert self.plan is not None
        from_worker = self.plan.worker_of(group)
        if from_worker == to_worker:
            return
        if not 0 <= to_worker < self.plan.workers:
            raise SimulationError(
                f"cannot migrate shard {group!r} to worker {to_worker}: "
                f"workers are 0..{self.plan.workers - 1}"
            )
        self._drain_all_acks((from_worker, to_worker))
        self._conns[from_worker].send(("dump", group))
        _, _, _, envelope = self._recv(from_worker, "state")
        self._conns[to_worker].send(("adopt", group, envelope))
        self._recv(to_worker, "adopted")
        self.plan.move(group, to_worker)
        self.migrations_done.append(
            (now_us, group, from_worker, to_worker)
        )

    # ------------------------------------------------------------------
    def run(self) -> ShardedRunResult:
        """Execute the sharded run end to end and merge the outputs."""
        config = self.config
        workload = LinearRoadWorkload(
            replace(config.workload, seed=self.seed)
        )
        key_fn = shard_key_fn(self.shard_key)
        slices = partition_arrivals(workload.arrivals(), key_fn)
        plan = ShardPlan(slices.keys(), self.shards)
        self.plan = plan
        horizon_us = int(config.workload.duration_s * US_PER_S)
        chunk_us = int(self.chunk_s * US_PER_S)
        pending = sorted(self.scripted_migrations, key=lambda m: m.at_s)
        backlog_log: List[Tuple[int, Dict[Hashable, int]]] = []
        frontier_close = config.frontier == "close"
        disorder_us = int(config.workload.disorder_s * US_PER_S)
        #: Merged minimum frontier across every logical shard, applied
        #: by the workers at the next chunk boundary.  ``None`` until
        #: the first acks arrive (and always, when closure is off).
        merged_frontier: Optional[int] = None
        frontier_log: List[Tuple[int, int]] = []
        # Frontier closure needs the full previous round before cutting
        # the next chunk (the merged bound rides in the chunk message),
        # so the credit window clamps to 1 and the grid stays fixed —
        # the lockstep barrier *is* the frontier protocol.
        inflight = 1 if frontier_close else self.max_inflight
        counters = self.statistics.engine_counters

        def fold_completed_rounds() -> None:
            """Move fully-acked head rounds into the telemetry logs."""
            nonlocal merged_frontier
            while self._round_order and not self._rounds[
                self._round_order[0]
            ][0]:
                done = self._round_order.popleft()
                _, backlogs, frontiers = self._rounds.pop(done)
                backlog_log.append((done, backlogs))
                if frontier_close:
                    # The merge: minimum of every shard's local bound,
                    # floored by the chunk watermark minus the disorder
                    # bound — a temporarily drained shard (bound None)
                    # can still receive events no older than that from
                    # the next chunk.  Per-group bounds come from the
                    # shards' own deterministic engines, so the merged
                    # sequence is identical for every worker count.
                    bounds = [
                        bound
                        for bound in frontiers.values()
                        if bound is not None
                    ]
                    bounds.append(done - disorder_us)
                    candidate = min(bounds)
                    if merged_frontier is None or (
                        candidate > merged_frontier
                    ):
                        merged_frontier = candidate
                    frontier_log.append((done, merged_frontier))

        try:
            self._spawn(plan)
            cursors = {group: 0 for group in plan.groups}
            last_ts = max(
                (items[-1][0] for items in slices.values() if items),
                default=0,
            )
            watermark = 0
            while watermark < horizon_us:
                watermark = min(watermark + chunk_us, horizon_us)
                per_worker: Dict[int, Dict[Hashable, list]] = {
                    worker: {} for worker in range(plan.workers)
                }
                for group in plan.groups:
                    items = slices[group]
                    start = cursors[group]
                    stop = start
                    while (
                        stop < len(items) and items[stop][0] < watermark
                    ):
                        stop += 1
                    cursors[group] = stop
                    if stop > start:
                        per_worker[plan.worker_of(group)][group] = items[
                            start:stop
                        ]
                self._rounds[watermark] = [plan.workers, {}, {}]
                self._round_order.append(watermark)
                for worker in range(plan.workers):
                    # The credit gate: at most ``inflight`` chunks
                    # outstanding per worker — encode + send overlap
                    # with every worker's compute until a window fills.
                    while len(self._outstanding[worker]) >= inflight:
                        self._drain_one_ack(worker)
                    encode_start = perf_counter_ns()
                    blob = encode_chunk(
                        per_worker[worker], now_us=watermark
                    )
                    counters["shard_encode_us"] += (
                        perf_counter_ns() - encode_start
                    ) // 1000
                    counters["shard_bytes_sent"] += len(blob)
                    counters["shard_chunks_sent"] += 1
                    self._conns[worker].send(
                        ("chunk", watermark, blob, merged_frontier)
                    )
                    self._outstanding[worker].append(watermark)
                total = self._inflight_total()
                counters["shard_chunks_inflight"] = total
                if total > counters["shard_peak_inflight"]:
                    counters["shard_peak_inflight"] = total
                if frontier_close:
                    self._drain_all_acks()
                else:
                    # Opportunistic: collect acks already queued, so
                    # telemetry stays fresh without ever stalling the
                    # send loop.
                    self._drain_ready_acks()
                fold_completed_rounds()
                while pending and pending[0].at_s * US_PER_S <= watermark:
                    migration = pending.pop(0)
                    self.migrate_shard(
                        migration.group, migration.to_worker, watermark
                    )
                    fold_completed_rounds()
                if watermark > last_ts and not pending:
                    break
            self._drain_all_acks()
            fold_completed_rounds()
            for worker in range(plan.workers):
                self._conns[worker].send(
                    ("finish", horizon_us,
                     _FAR_FUTURE if frontier_close else None)
                )
            per_shard: Dict[Hashable, Dict[str, Any]] = {}
            for worker in range(plan.workers):
                _, _, results = self._recv(worker, "result")
                per_shard.update(results)
        finally:
            for conn in self._conns:
                try:
                    conn.send(("stop",))
                except (OSError, ValueError):
                    pass
            for process in self._procs:
                process.join(timeout=30)
                if process.is_alive():  # pragma: no cover - hang guard
                    process.terminate()
            for conn in self._conns:
                conn.close()
            self._conns = []
            self._procs = []
            self._outstanding = []
            self._rounds = {}
            self._round_order = deque()
        missing = set(plan.groups) - set(per_shard)
        if missing:
            raise SimulationError(
                f"shard groups {sorted(missing)} reported no result"
            )
        ordered = [per_shard[group] for group in plan.groups]
        return ShardedRunResult(
            toll_trace=merge_traces(
                [shard["traces"]["toll"] for shard in ordered]
            ),
            accident_trace=merge_traces(
                [shard["traces"]["accident"] for shard in ordered]
            ),
            **{
                name: sum(shard[name] for shard in ordered)
                for name in _SUMMED_COUNTERS
            },
            workers=plan.workers,
            groups=plan.groups,
            per_shard=per_shard,
            backlog_log=backlog_log,
            frontier_log=frontier_log,
            migrations=list(self.migrations_done),
            transport=dict(
                self.statistics.engine_counters, shard_window=inflight
            ),
        )


def run_sharded(
    config: Any,
    seed: int = 1,
    shards: int = 2,
    shard_key: str = "xway",
    chunk_s: int = 10,
    migrations: Sequence[ShardMigration] = (),
    max_inflight: int = DEFAULT_INFLIGHT,
) -> ShardedRunResult:
    """One seeded Linear Road run partitioned across worker processes.

    The convenience entry point behind ``repro run --shards N``: builds
    a :class:`ShardCoordinator` and runs it.  The merged canonical
    traces in the result are bit-identical to
    :func:`run_single_canonical` on the same config + seed, for any
    shard count, in-flight depth, chunk grid and any scripted
    migrations.
    """
    return ShardCoordinator(
        config,
        seed=seed,
        shards=shards,
        shard_key=shard_key,
        chunk_s=chunk_s,
        migrations=migrations,
        max_inflight=max_inflight,
    ).run()


def run_single_canonical(
    config: Any, seed: int = 1
) -> Dict[str, List[CanonicalRecord]]:
    """Canonical sink traces of a single-process run (the merge oracle).

    Runs the ordinary in-process harness path — in the same
    *event-time-pure* windowing mode the shard workers use (formation
    timeouts fire on placement-dependent engine time, so both sides of
    the comparison must run without them) — and canonicalizes its sinks
    exactly as the workers do, so equality against a
    :class:`ShardedRunResult`'s merged traces is a pure list compare.
    """
    from ..harness.experiment import build_engine
    from .routing import canonical_run_traces

    engine = build_engine(config, seed, window_timeouts=False)
    engine.run()
    return canonical_run_traces(engine.system)

"""The shard worker: one process hosting one or more logical shards.

Each logical shard is a complete Linear Road engine — its own workflow
instance, SCWF director (scheduler, waves, windows, QoS, tracing and
checkpointing all intact), virtual clock and cost model — assembled by
the one engine builder (:func:`repro.harness.experiment.build_engine`, with
the shard's record as its ``shard`` argument) over an initially *empty*
arrival schedule.  The coordinator streams the
shard's slice of the input over a ``multiprocessing`` pipe in
watermarked chunks; the worker feeds each chunk into the shard's source
and advances the shard's virtual clock to the watermark.  Because the
simulation runtime admits arrivals at their stamped times and
fast-forwards idle gaps, this chunked delivery is bit-identical to
preloading the full schedule.

Per-shard determinism is that argument's doing: the cost-model jitter
stream is seeded with :func:`~repro.shard.routing.shard_seed` and fault
injectors are salted with :func:`~repro.shard.routing.shard_salt` — both
derive from the shard's *key value*, never from worker count or
placement, so a shard computes the same answer no matter where (or
alongside what) it runs.  Window-formation timeouts — the one
engine-time-driven windowing mechanism, and therefore the one
placement-dependent one — are stripped at build time
(:func:`repro.core.strip_window_timeouts`), so shard workflows are
*event-time pure*: panes close only when later events cross their
boundaries (or, under frontier closure, when the coordinator's merged
frontier passes them).

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

from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Dict, Hashable, Optional, Sequence, Tuple

from ..core.exceptions import SimulationError
from .codec import decode_chunk
from .migration import apply_envelope, make_envelope


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


def build_shard_engine(
    config: Any,
    seed: int,
    key_name: str,
    group: Hashable,
    all_groups: Sequence[Hashable] = (),
    arrivals: Sequence[Tuple[int, Any]] = (),
):
    """One logical shard's :class:`~repro.harness.experiment.Engine`.

    :func:`repro.harness.experiment.build_engine` — the one builder — called
    with the shard's manifest record as its ``shard`` argument and an
    arrival schedule that starts as whatever the caller provides (empty
    for a pipe-fed worker).  What the record changes is listed there.
    """
    # Imported here: the harness reaches this package for the codec and
    # the routing helpers while it is itself being imported.
    from ..harness.experiment import build_engine

    return build_engine(
        config,
        seed,
        shard={"key": key_name, "group": group, "groups": list(all_groups)},
        arrivals=list(arrivals),
    )


def worker_main(conn: Any, spec: ShardWorkerSpec) -> None:
    """Entry point of one shard worker process.

    Builds an engine per assigned group, announces readiness, then
    serves the coordinator's message loop until ``("stop",)``.
    """

    def build(group: Hashable):
        return build_shard_engine(
            spec.config,
            spec.seed,
            spec.key_name,
            group,
            all_groups=spec.all_groups,
        )

    engines = {group: build(group) for group in spec.groups}
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
                    backlogs[group] = engine.director.backlog()
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
                engine = build(group)
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

"""Live shard migration: checkpoint snapshots as the transfer format.

Moving a logical shard between worker processes reuses the engine
checkpoint layer wholesale: the source worker captures a full snapshot
of the shard's engine (:func:`~repro.checkpoint.capture_snapshot` —
receivers, window panes, RNGs, scheduler queues, clock, serial
counters), wraps it in a small *envelope* identifying the shard, and the
coordinator ships the bytes to the target worker, which rebuilds the
engine structure and applies the snapshot in place
(:func:`~repro.checkpoint.restore_snapshot`).  Because restore is
bit-identical resume, the migrated shard continues exactly where it
stopped — no replay, no divergence — and the run's final output is
byte-identical to an unmigrated run.

The envelope exists because the structural fingerprint alone cannot
tell shards apart: every logical shard of the same workflow has the
*same* structure (same actors, ports and policy), so restoring shard 2's
snapshot onto shard 3's engine would pass the fingerprint check and
silently produce a diverged run.  :func:`apply_envelope` rejects that
with :class:`~repro.core.exceptions.CheckpointError` before the
fingerprint check even runs.

The envelope also carries the source actors' pending arrival schedules:
arrival lists are structural (``checkpoint_exclude``) and normally
rebuilt by the workload builder, but a shard worker receives its
arrivals incrementally over a pipe, so what it was fed so far must
travel with the snapshot for the restored cursor to be meaningful.  A
source lets go of arrivals it has delivered, so that is the part it
still holds, beside its ``_base``: how many arrivals it let go of, all
of them before the snapshot's cursor.

With the pipelined data plane that prefix is only well-defined once the
coordinator *quiesces* both ends: chunks may sit unprocessed in the
donor's credit window when the migration triggers, so
``ShardCoordinator.migrate_shard`` drains the donor's and the target's
outstanding acks before sending ``dump`` — the envelope then covers
exactly the chunks sent so far, the same prefix a lockstep run would
have fed, which is what keeps migrated runs byte-identical at any
in-flight depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable

from ..checkpoint import (
    capture_snapshot,
    deserialize_snapshot,
    restore_snapshot,
    serialize_snapshot,
)
from ..core.actors import SourceActor
from ..core.exceptions import CheckpointError

#: Envelope layout version — bumped if the dict shape changes.  Envelopes
#: only travel between the workers of one run.
ENVELOPE_FORMAT = 2


@dataclass(frozen=True)
class ShardMigration:
    """One scripted live migration: move *group* at *at_s* engine time.

    The coordinator performs the move at the first chunk boundary whose
    watermark is at or past ``at_s`` — a quiescent point for every
    engine, so the snapshot needs no extra barrier.
    """

    at_s: float
    group: Hashable
    to_worker: int


def make_envelope(engine: Any) -> Dict[str, Any]:
    """Snapshot one shard engine into a self-contained migration envelope.

    The envelope carries the shard identity (key name + group), every
    source actor's arrival schedule as ``(base, arrivals)`` — the count
    it has let go of and the arrivals it still holds — and the
    serialized engine snapshot.  It is plain picklable data — safe to
    send over a ``multiprocessing`` pipe.
    """
    pending: Dict[str, tuple] = {}
    for name, actor in engine.system.workflow.actors.items():
        if isinstance(actor, SourceActor):
            pending[name] = (actor._base, list(actor._pending))
    return {
        "format": ENVELOPE_FORMAT,
        "key": engine.shard["key"],
        "group": engine.shard["group"],
        "engine_time_us": engine.clock.now_us,
        "pending": pending,
        "payload": serialize_snapshot(capture_snapshot(engine.director)),
    }


def apply_envelope(engine: Any, envelope: Dict[str, Any]) -> None:
    """Restore a migration envelope onto a freshly built shard engine.

    The engine must be structurally rebuilt for the *same* shard —
    identity is validated first (fingerprints cannot distinguish shards
    of one workflow), then the pending arrival schedules are reloaded,
    and finally the snapshot is applied in place with the usual
    structural-fingerprint guard.
    """
    if envelope.get("format") != ENVELOPE_FORMAT:
        raise CheckpointError(
            f"migration envelope format {envelope.get('format')!r} is "
            f"not supported (expected {ENVELOPE_FORMAT})"
        )
    shard = engine.shard
    if (
        envelope.get("key") != shard["key"]
        or envelope.get("group") != shard["group"]
    ):
        raise CheckpointError(
            f"migration envelope is for shard "
            f"{envelope.get('key')}={envelope.get('group')!r} but the "
            f"target engine hosts "
            f"{shard['key']}={shard['group']!r} — refusing to restore "
            "another shard's state"
        )
    engine.director.initialize_all()
    for name, (base, arrivals) in envelope["pending"].items():
        actor = engine.system.workflow.actors.get(name)
        if not isinstance(actor, SourceActor):
            raise CheckpointError(
                f"migration envelope has pending arrivals for {name!r} "
                "but the rebuilt engine has no such source"
            )
        actor.load(arrivals)
        actor._base = base
    restore_snapshot(
        engine.director, deserialize_snapshot(envelope["payload"])
    )
    if engine.checkpointer is not None:
        engine.checkpointer.align_to(int(envelope["engine_time_us"]))

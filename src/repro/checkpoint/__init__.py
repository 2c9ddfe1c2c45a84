"""Wave-aligned checkpointing and crash recovery (``repro.checkpoint``).

The subsystem has three layers:

* :mod:`~repro.checkpoint.protocol` — the ``Checkpointable``
  structure/data contract (``state_dump``/``state_restore``) every engine
  component implements;
* :mod:`~repro.checkpoint.store` — pluggable snapshot stores: the
  in-memory test store and the atomic, CRC-verified, retention-bounded
  :class:`DirectoryCheckpointStore`;
* :mod:`~repro.checkpoint.snapshot` + :mod:`~repro.checkpoint.checkpointer`
  — the orchestrator that walks the engine and the trigger layer that
  decides *when* (periodic engine-time boundaries or an explicit
  barrier) and records trace events and statistics counters.

Quickstart::

    store = DirectoryCheckpointStore("ckpts")
    ckpt = EngineCheckpointer(director, store, every_us=5_000_000)
    runtime = SimulationRuntime(director, ..., checkpointer=ckpt)
    runtime.run(...)                    # snapshots every 5 engine seconds
    ...                                 # crash!  rebuild the same engine:
    manifest = restore_latest(director2, store)   # resume from manifest
"""

from .checkpointer import EngineCheckpointer, restore_latest
from .protocol import dump_component, restore_component
from .snapshot import (
    SNAPSHOT_FORMAT,
    capture_snapshot,
    deserialize_snapshot,
    restore_snapshot,
    serialize_snapshot,
    structure_fingerprint,
)
from .store import (
    CheckpointManifest,
    CheckpointStore,
    DirectoryCheckpointStore,
    MemoryCheckpointStore,
)

__all__ = [
    "CheckpointManifest",
    "CheckpointStore",
    "DirectoryCheckpointStore",
    "EngineCheckpointer",
    "MemoryCheckpointStore",
    "SNAPSHOT_FORMAT",
    "capture_snapshot",
    "deserialize_snapshot",
    "dump_component",
    "restore_component",
    "restore_latest",
    "restore_snapshot",
    "serialize_snapshot",
    "structure_fingerprint",
]

"""Sharded multi-process execution with checkpoint-backed migration.

``repro.shard`` scales the engine past the GIL: a coordinator partitions
a seeded workload by a group-by key into **logical shards** (one per
distinct key value), multiplexes them onto N worker processes each
running a full SCWF engine, routes source events over
``multiprocessing`` pipes, and deterministically merges the sink
outputs — bit-identical to a single-process run of the same seed.
Live rebalancing reuses the checkpoint layer: a shard migrates between
workers as a snapshot envelope, continuing without replay.

Layout:

* :mod:`repro.shard.routing` — shard plans, per-shard CRC seeds,
  canonical traces and the deterministic merge;
* :mod:`repro.shard.codec` — the data plane's wire format: columnar
  struct packing for homogeneous LR chunks, framed pickle-5 fallback;
* :mod:`repro.shard.worker` — the worker process: the pipe message loop
  over engines the one builder (:mod:`repro.harness.experiment`) assembles;
* :mod:`repro.shard.coordinator` — the coordinator: credit-based
  pipelined chunk streaming, backlog telemetry, migration
  orchestration and the merge;
* :mod:`repro.shard.migration` — snapshot envelopes: the checkpoint
  layer as a migration primitive.
"""

from .codec import (
    ColumnarBatch,
    decode_chunk,
    encode_chunk,
)
from .coordinator import (
    run_sharded,
    run_single_canonical,
    ShardCoordinator,
    ShardedRunResult,
)
from .migration import (
    apply_envelope,
    make_envelope,
    ShardMigration,
)
from .routing import (
    canonical_trace,
    merge_traces,
    partition_arrivals,
    shard_salt,
    shard_seed,
    ShardPlan,
)
from .worker import build_shard_engine, ShardWorkerSpec

__all__ = [
    "apply_envelope",
    "build_shard_engine",
    "canonical_trace",
    "make_envelope",
    "merge_traces",
    "partition_arrivals",
    "run_sharded",
    "run_single_canonical",
    "shard_salt",
    "shard_seed",
    "ColumnarBatch",
    "decode_chunk",
    "encode_chunk",
    "ShardCoordinator",
    "ShardedRunResult",
    "ShardMigration",
    "ShardPlan",
    "ShardWorkerSpec",
]

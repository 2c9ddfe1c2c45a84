"""Live shard migration (``repro.shard.migration``) across real pipes.

Satellite acceptance for the sharding PR: a shard engine snapshot must
survive a round trip through a *real* ``multiprocessing`` pipe into a
different process — not just an in-process capture/restore — and
continue bit-identically there; a snapshot for a structurally different
engine (or another shard) must be rejected.  The tentpole property is
exercised end to end: a scripted mid-run migration leaves the merged
sink output byte-identical to an unmigrated run.
"""

import multiprocessing
from dataclasses import replace

import pytest

from repro.core.exceptions import CheckpointError
from repro.harness.configs import ExperimentConfig, SchedulerSpec
from repro.linearroad.generator import LinearRoadWorkload, WorkloadConfig
from repro.linearroad.workflow import shard_key_fn
from repro.shard import run_sharded, ShardMigration
from repro.shard.migration import apply_envelope, make_envelope
from repro.shard.routing import canonical_run_traces
from repro.shard.worker import build_shard_engine

HORIZON_S = 60


def small_config(**overrides) -> ExperimentConfig:
    """The same fast 4-expressway workload the shard tests use."""
    workload = WorkloadConfig(
        duration_s=HORIZON_S, peak_rate=80, seed=1, l_rating=4.0
    )
    return ExperimentConfig(
        scheduler=SchedulerSpec(kind="FIFO"),
        workload=workload,
        seeds=(1,),
        **overrides,
    )


def shard_arrivals(config: ExperimentConfig, group: int):
    """The xway==group slice of the seeded global arrival schedule."""
    workload = LinearRoadWorkload(replace(config.workload, seed=1))
    key_fn = shard_key_fn("xway")
    return [
        pair for pair in workload.arrivals() if key_fn(pair[1]) == group
    ]


def _adopt_and_finish(conn, config, group, horizon_s):
    """Child-process half of the pipe round trip: restore and continue.

    Receives a migration envelope over the pipe, rebuilds the shard
    engine from structure alone, applies the envelope, runs to the
    horizon and reports the canonical traces (or the failure).
    """
    try:
        envelope = conn.recv()
        engine = build_shard_engine(config, 1, "xway", group)
        apply_envelope(engine, envelope)
        engine.runtime.run(horizon_s)
        conn.send(("ok", canonical_run_traces(engine.system)))
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        conn.send(("error", type(exc).__name__, str(exc)))
    finally:
        conn.close()


def _round_trip(config, donor_config, group):
    """Dump a mid-run engine, ship it through a Pipe, return the reply."""
    arrivals = shard_arrivals(donor_config, group)
    donor = build_shard_engine(
        donor_config, 1, "xway", group, arrivals=arrivals
    )
    donor.director.initialize_all()
    donor.runtime.run(HORIZON_S / 2)
    envelope = make_envelope(donor)
    ctx = multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else None
    )
    parent, child = ctx.Pipe()
    process = ctx.Process(
        target=_adopt_and_finish,
        args=(child, config, group, HORIZON_S),
        daemon=True,
    )
    process.start()
    child.close()
    parent.send(envelope)
    reply = parent.recv()
    process.join(timeout=60)
    parent.close()
    return reply


def test_snapshot_round_trips_through_a_real_pipe():
    """Dump at t=30s, restore in a child process, finish: bit-identical."""
    config = small_config()
    group = 1
    reference = build_shard_engine(
        config, 1, "xway", group, arrivals=shard_arrivals(config, group)
    )
    reference.director.initialize_all()
    reference.runtime.run(HORIZON_S)
    expected = canonical_run_traces(reference.system)
    assert expected["toll"], "reference shard produced no output"

    reply = _round_trip(config, config, group)
    assert reply[0] == "ok", reply
    assert reply[1] == expected


def test_structural_fingerprint_mismatch_rejected_across_pipe():
    """An RR donor's snapshot must not restore onto a FIFO engine."""
    config = small_config()
    donor_config = replace(
        small_config(), scheduler=SchedulerSpec(kind="RR")
    )
    reply = _round_trip(config, donor_config, group=1)
    assert reply[0] == "error", reply
    assert reply[1] == "CheckpointError"
    assert "structure does not match" in reply[2]


def test_envelope_rejects_wrong_shard_and_format():
    """Identity checks fire before the fingerprint guard ever runs."""
    config = small_config()
    donor = build_shard_engine(
        config, 1, "xway", 0, arrivals=shard_arrivals(config, 0)
    )
    donor.director.initialize_all()
    donor.runtime.run(10)
    envelope = make_envelope(donor)
    assert (envelope["key"], envelope["group"]) == ("xway", 0)

    other = build_shard_engine(config, 1, "xway", 1)
    with pytest.raises(CheckpointError, match="refusing to restore"):
        apply_envelope(other, envelope)

    stale = dict(envelope, format=99)
    target = build_shard_engine(config, 1, "xway", 0)
    with pytest.raises(CheckpointError, match="format"):
        apply_envelope(target, stale)


def test_live_migration_preserves_merged_output():
    """Scripted mid-run migrations leave the merged trace byte-identical."""
    config = small_config()
    plain = run_sharded(config, seed=1, shards=2)
    migrated = run_sharded(
        config,
        seed=1,
        shards=2,
        migrations=[
            ShardMigration(at_s=20, group=0, to_worker=1),
            ShardMigration(at_s=40, group=3, to_worker=0),
        ],
    )
    assert [m[1:] for m in migrated.migrations] == [(0, 0, 1), (3, 1, 0)]
    assert migrated.toll_trace == plain.toll_trace
    assert migrated.accident_trace == plain.accident_trace
    assert migrated.tolls == plain.tolls


def test_migration_to_same_worker_is_a_noop():
    """A migration that targets the current host changes nothing."""
    config = small_config()
    result = run_sharded(
        config,
        seed=1,
        shards=2,
        migrations=[ShardMigration(at_s=20, group=0, to_worker=0)],
    )
    assert result.migrations == []


def test_migrated_shard_keeps_checkpointing_on_grid(tmp_path):
    """After adoption the shard checkpoints on its original time grid."""
    config = small_config(
        checkpoint_dir=str(tmp_path), checkpoint_every_s=15.0
    )
    plain_dir = tmp_path / "plain"
    migrated_dir = tmp_path / "migrated"
    plain = run_sharded(
        replace(config, checkpoint_dir=str(plain_dir)), seed=1, shards=2
    )
    migrated = run_sharded(
        replace(config, checkpoint_dir=str(migrated_dir)),
        seed=1,
        shards=2,
        migrations=[ShardMigration(at_s=20, group=0, to_worker=1)],
    )
    assert migrated.toll_trace == plain.toll_trace
    # The migrated run re-snapshots from the adopted engine; both runs
    # publish into shard-0 and land on the same every-15s grid.
    times = sorted(
        int(path.stem.split("-")[1])
        for path in (migrated_dir / "shard-0").glob("ckpt-*.json")
    )
    assert times, "migrated shard published no checkpoints"

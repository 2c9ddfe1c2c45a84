"""Sharded execution (``repro.shard``): partition, route, merge.

The headline acceptance property: a seeded Linear Road run partitioned
by expressway across 1, 2 or 4 worker processes produces a merged
canonical sink trace **bit-identical** to the single-process run of the
same config + seed.  Also covered: shard plans, per-shard seed
derivation, the deterministic merge, backlog telemetry, per-shard
checkpoint directories with shard-stamped manifests, ``repro resume``
on a shard directory, chaos-run determinism under any worker count and
the CLI surface.
"""

import json
from dataclasses import replace

import pytest

from repro.checkpoint import CheckpointManifest
from repro.core.actors import SourceActor
from repro.core.exceptions import ActorError, SimulationError
from repro.harness.cli import main
from repro.harness.configs import ExperimentConfig, SchedulerSpec
from repro.harness.experiment import resume_run
from repro.linearroad.generator import LinearRoadWorkload, WorkloadConfig
from repro.linearroad.workflow import SHARD_KEYS, shard_key_fn
from repro.shard import (
    canonical_trace,
    merge_traces,
    partition_arrivals,
    run_sharded,
    run_single_canonical,
    shard_salt,
    shard_seed,
    ShardPlan,
)


def small_config(**overrides) -> ExperimentConfig:
    """A fast 4-expressway workload that stays un-backlogged."""
    workload = WorkloadConfig(
        duration_s=60, peak_rate=80, seed=1, l_rating=4.0
    )
    return ExperimentConfig(
        scheduler=SchedulerSpec(kind="FIFO"),
        workload=workload,
        seeds=(1,),
        **overrides,
    )


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return small_config()


@pytest.fixture(scope="module")
def single(config):
    """Canonical traces of the single-process oracle run."""
    return run_single_canonical(config, seed=1)


# ---------------------------------------------------------------------------
# ShardPlan


def test_plan_round_robin_assignment():
    plan = ShardPlan([3, 1, 0, 2], workers=2)
    assert plan.groups == (0, 1, 2, 3)
    assert plan.workers == 2
    assert plan.assignment() == {0: 0, 1: 1, 2: 0, 3: 1}
    assert plan.groups_of(0) == (0, 2)
    assert plan.groups_of(1) == (1, 3)


def test_plan_caps_workers_at_group_count():
    plan = ShardPlan([0, 1], workers=8)
    assert plan.workers == 2


def test_plan_move_reassigns_and_reports_previous():
    plan = ShardPlan([0, 1, 2, 3], workers=2)
    assert plan.move(0, 1) == 0
    assert plan.worker_of(0) == 1
    assert plan.groups_of(1) == (0, 1, 3)
    with pytest.raises(SimulationError):
        plan.move(0, 5)
    with pytest.raises(SimulationError):
        plan.worker_of("nope")


def test_plan_rejects_degenerate_inputs():
    with pytest.raises(SimulationError):
        ShardPlan([], workers=2)
    with pytest.raises(SimulationError):
        ShardPlan([0], workers=0)


# ---------------------------------------------------------------------------
# Seeds, keys, partitioning, merge


def test_shard_seed_is_stable_and_distinct():
    assert shard_seed(7, "shard:xway=0") == shard_seed(7, "shard:xway=0")
    assert shard_seed(7, "shard:xway=0") != shard_seed(7, "shard:xway=1")
    assert shard_seed(7, "shard:xway=0") != shard_seed(8, "shard:xway=0")
    assert shard_salt("shard:xway=0") != shard_salt("shard:xway=1")


def test_shard_key_fn_rejects_unknown_key():
    with pytest.raises(ValueError, match="xway"):
        shard_key_fn("lane")
    assert set(SHARD_KEYS) == {"xway", "direction", "car_id"}


def test_partition_preserves_order_and_timestamps(config):
    workload = LinearRoadWorkload(replace(config.workload, seed=1))
    arrivals = workload.arrivals()
    key_fn = shard_key_fn("xway")
    slices = partition_arrivals(arrivals, key_fn)
    assert set(slices) == {0, 1, 2, 3}
    # Each slice is a pure *filter* of the global schedule: same pairs,
    # same relative order, same (global-index-encoding) timestamps.
    for group, items in slices.items():
        assert items == [
            pair for pair in arrivals if key_fn(pair[1]) == group
        ]
    assert sum(len(items) for items in slices.values()) == len(arrivals)


def test_merge_traces_is_a_stable_total_order():
    a = [(5, ("T", 1)), (1, ("T", 2))]
    b = [(1, ("A", None)), (5, ("T", 0))]
    merged = merge_traces([a, b])
    assert merged == sorted(a + b, key=lambda r: (r[0], repr(r[1])))


def test_source_feed_appends_and_rejects_regressions():
    source = SourceActor("src", arrivals=[(10, "a")])
    source.feed([(20, "b"), (30, "c")])
    assert [ts for ts, _ in source._pending] == [10, 20, 30]
    with pytest.raises(ActorError, match="append"):
        source.feed([(5, "late")])
    source.feed([])  # no-op
    assert [ts for ts, _ in source._pending] == [10, 20, 30]


def test_source_feed_sorts_an_unsorted_batch():
    # A chunk is sorted by delivery time before it is appended.
    source = SourceActor("src", out_of_order=True)
    source.feed([(30, "b"), (10, "a")])
    assert source._pending == [(10, "a"), (30, "b")]


def test_source_feed_keeps_disorder_triples():
    source = SourceActor("src", out_of_order=True, disorder_us=5)
    source.feed([(20, "b", 18), (30, "c", 27)])
    assert source._pending == [(20, "b", 18), (30, "c", 27)]


# ---------------------------------------------------------------------------
# The headline property: sharded == single, for any worker count


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_run_matches_single_process(config, single, shards):
    result = run_sharded(config, seed=1, shards=shards)
    assert result.groups == (0, 1, 2, 3)
    assert result.workers == min(shards, 4)
    assert result.toll_trace == single["toll"]
    assert result.accident_trace == single["accident"]
    assert result.tolls == len(single["toll"])


def test_sharded_run_reports_backlog_telemetry(config):
    result = run_sharded(config, seed=1, shards=2, chunk_s=10)
    assert result.backlog_log
    watermarks = [wm for wm, _ in result.backlog_log]
    assert watermarks == sorted(watermarks)
    for _, backlogs in result.backlog_log:
        assert set(backlogs) <= set(result.groups)
    assert result.peak_backlog() >= 0
    assert set(result.per_shard) == set(result.groups)


def test_sharded_run_rejects_pncwf_and_bad_arguments():
    config = small_config()
    pncwf = replace(config, scheduler=SchedulerSpec(kind="PNCWF"))
    with pytest.raises(SimulationError, match="SCWF"):
        run_sharded(pncwf, seed=1, shards=2)
    with pytest.raises(SimulationError, match="shards"):
        run_sharded(config, seed=1, shards=0)
    with pytest.raises(SimulationError, match="chunk"):
        run_sharded(config, seed=1, shards=2, chunk_s=0)


def test_chaos_run_identical_under_any_worker_count():
    config = small_config(fault_spec="*:rate=0.02,seed=3")
    one = run_sharded(config, seed=1, shards=1)
    four = run_sharded(config, seed=1, shards=4)
    assert one.injected_faults > 0
    assert one.injected_faults == four.injected_faults
    assert one.failures == four.failures
    assert one.toll_trace == four.toll_trace
    assert one.accident_trace == four.accident_trace


# ---------------------------------------------------------------------------
# Satellite: shard-stamped checkpoint manifests + per-shard resume


def test_manifest_shard_field_round_trips():
    manifest = CheckpointManifest(
        checkpoint_id=1,
        engine_time_us=1000,
        payload_bytes=10,
        crc32=42,
        created_at=0.0,
        shard={"key": "xway", "group": 2, "groups": [0, 1, 2, 3]},
    )
    parsed = CheckpointManifest.from_json(manifest.to_json())
    assert parsed.shard == {"key": "xway", "group": 2,
                            "groups": [0, 1, 2, 3]}


def test_manifest_without_shard_stays_old_format():
    manifest = CheckpointManifest(
        checkpoint_id=1,
        engine_time_us=1000,
        payload_bytes=10,
        crc32=42,
        created_at=0.0,
    )
    record = json.loads(manifest.to_json())
    assert "shard" not in record  # pre-shard readers see the old shape
    parsed = CheckpointManifest.from_json(manifest.to_json())
    assert parsed.shard is None


def test_old_manifest_json_still_parses():
    old = json.dumps(
        {
            "checkpoint_id": 3,
            "engine_time_us": 5,
            "payload_bytes": 7,
            "crc32": 9,
            "created_at": 1.5,
            "meta": {"seed": 1},
        }
    )
    parsed = CheckpointManifest.from_json(old)
    assert parsed.shard is None
    assert parsed.meta == {"seed": 1}


def test_sharded_checkpoints_and_per_shard_resume(tmp_path, single):
    config = small_config(
        checkpoint_dir=str(tmp_path), checkpoint_every_s=15.0
    )
    result = run_sharded(config, seed=1, shards=2)
    assert result.checkpoints > 0
    shard_dirs = sorted(p.name for p in tmp_path.iterdir())
    assert shard_dirs == ["shard-0", "shard-1", "shard-2", "shard-3"]
    manifest_path = next((tmp_path / "shard-2").glob("ckpt-*.json"))
    record = json.loads(manifest_path.read_text())
    assert record["shard"] == {"key": "xway", "group": 2,
                               "groups": [0, 1, 2, 3]}
    # Resume shard 2 alone from its directory: the resumed engine's
    # output must be exactly the single-process trace's xway==2 slice.
    run_result, _, system, manifest = resume_run(str(tmp_path / "shard-2"))
    assert manifest.shard["group"] == 2
    resumed = sorted(
        canonical_trace(system.toll_out), key=lambda r: (r[0], repr(r[1]))
    )
    expected = [
        record for record in single["toll"] if record[1][4] == 2
    ]  # TollNotification.xway is astuple index 4 (after the type name)
    assert resumed == expected


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_sharded_run(capsys):
    code = main(
        ["--duration", "30", "run", "fifo", "--shards", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "sharded Linear Road run" in out
    assert "merged totals" in out
    assert "peak per-shard backlog" in out


def test_cli_sharded_rejects_multiple_seeds():
    with pytest.raises(SystemExit, match="single seed"):
        main(
            ["--duration", "30", "--seeds", "2", "run", "fifo",
             "--shards", "2"]
        )

"""A source lets go of the arrivals it has delivered.

A fed push source (a shard worker's, chunk by chunk) must not keep every
arrival it has delivered, or its memory grows with the length of the
run.  Delivered arrivals leave the front of the schedule in amortized
batches; the replay cursor stays absolute, so snapshots, resumes and
migrations read what they would read from the whole schedule.
"""

import gc
import pickle
import tracemalloc
from dataclasses import replace

import pytest

from repro.checkpoint import (
    capture_snapshot,
    deserialize_snapshot,
    EngineCheckpointer,
    MemoryCheckpointStore,
    restore_snapshot,
)
from repro.core import actors as actors_module
from repro.core.actors import MapActor, SinkActor, SourceActor
from repro.core.exceptions import ActorError, CheckpointError
from repro.core.windows import WindowSpec
from repro.core.workflow import Workflow
from repro.harness.configs import ExperimentConfig, SchedulerSpec
from repro.linearroad.generator import LinearRoadWorkload, WorkloadConfig
from repro.linearroad.workflow import shard_key_fn
from repro.shard import run_sharded, ShardMigration
from repro.shard.migration import apply_envelope, make_envelope
from repro.shard.routing import canonical_run_traces
from repro.shard.worker import build_shard_engine
from repro.simulation import CostModel, SimulationRuntime, VirtualClock
from repro.stafilos import FIFOScheduler, SCWFDirector

CHUNKS, ROWS = 200, 100
#: A chunk spans one second; rows are 10 ms apart.
CHUNK_US, ROW_US = 1_000_000, 10_000
DISORDER_US = 30_000
ORDERS = pytest.mark.parametrize(
    "out_of_order", [False, True], ids=["strict", "disorder"]
)


def chunk(index, out_of_order):
    """*ROWS* arrivals of one second, disordered by up to 20 ms."""
    rows = []
    for row in range(ROWS):
        delivery = index * CHUNK_US + row * ROW_US
        value = (index, row)
        if out_of_order:
            rows.append((delivery, value, delivery - (row % 3) * ROW_US))
        else:
            rows.append((delivery, value))
    return rows


def fed_engine(out_of_order):
    """Source -> a relay that drops everything: nothing else keeps rows."""
    workflow = Workflow("fed")
    source = SourceActor(
        "src", out_of_order=out_of_order, disorder_us=DISORDER_US
    )
    source.add_output("out")
    drop = MapActor("drop", lambda value: None)
    workflow.add_all([source, drop])
    workflow.connect(source, drop)
    clock = VirtualClock()
    director = SCWFDirector(FIFOScheduler(), clock, CostModel())
    director.attach(workflow)
    return SimulationRuntime(director, clock), source


@ORDERS
def test_a_fed_source_holds_a_bounded_schedule(out_of_order):
    runtime, source = fed_engine(out_of_order)
    gc.collect()
    tracemalloc.start()
    try:
        longest = 0
        for index in range(CHUNKS):
            source.feed(chunk(index, out_of_order))
            longest = max(longest, len(source._pending))
            runtime.run((index + 1) * CHUNK_US / 1e6)  # to the watermark
            longest = max(longest, len(source._pending))
            if index + 1 == 20:
                gc.collect()
                early, _ = tracemalloc.get_traced_memory()
        gc.collect()
        late, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert source._cursor == CHUNKS * ROWS and source.exhausted()
    # A source that keeps what it delivered holds all 20 000 rows here,
    # and its traced bytes grow ~8x from chunk 20 to chunk 200.
    slack = DISORDER_US // ROW_US + 1
    assert longest <= 2 * ROWS + slack, longest
    assert late <= early * 1.1, (early, late)


# ---------------------------------------------------------------------------
# Exactness: what was let go of is never read again
# ---------------------------------------------------------------------------
SECONDS = 30


def schedule(out_of_order):
    return [
        row for index in range(SECONDS) for row in chunk(index, out_of_order)
    ]


def windowed_engine(out_of_order, arrivals=()):
    """Source -> per-second sums over a 2 s sliding window -> sink."""
    workflow = Workflow("sums")
    source = SourceActor(
        "src", arrivals, out_of_order=out_of_order, disorder_us=DISORDER_US
    )
    source.add_output("out")
    sums = MapActor(
        "sums",
        lambda values: sum(row for _, row in values),
        window=WindowSpec.time(2 * CHUNK_US, CHUNK_US),
    )
    sink = SinkActor("sink")
    workflow.add_all([source, sums, sink])
    workflow.connect(source, sums)
    workflow.connect(sums, sink)
    clock = VirtualClock()
    director = SCWFDirector(FIFOScheduler(), clock, CostModel())
    director.attach(workflow)
    return SimulationRuntime(director, clock), source, sink


def outputs(sink):
    return [(t, item.value, item.timestamp) for t, item in sink.items]


@ORDERS
def test_resume_at_every_snapshot_after_letting_go(out_of_order):
    arrivals = schedule(out_of_order)
    runtime, source, sink = windowed_engine(out_of_order, arrivals)
    store = MemoryCheckpointStore(retain=10 * SECONDS)
    runtime.checkpointer = EngineCheckpointer(
        runtime.director, store, every_us=CHUNK_US
    )
    runtime.run(SECONDS, drain=True)
    reference = outputs(sink)
    assert source._base > 0 and reference
    manifests = store.manifests()
    assert len(manifests) >= SECONDS - 1
    for manifest in manifests:
        _, payload = store.load(manifest.checkpoint_id)
        resumed, _, resumed_sink = windowed_engine(
            out_of_order, schedule(out_of_order)
        )
        resumed.director.initialize_all()
        restore_snapshot(resumed.director, deserialize_snapshot(payload))
        resumed.run(SECONDS, drain=True)
        assert outputs(resumed_sink) == reference, manifest.checkpoint_id


@ORDERS
def test_letting_go_leaves_the_dump_bytes_alone(out_of_order, monkeypatch):
    runtime, source, _ = windowed_engine(out_of_order, schedule(out_of_order))
    runtime.run(SECONDS * 0.8)
    monkeypatch.setattr(actors_module, "_LET_GO_MIN", 10**9)
    holding, kept, _ = windowed_engine(out_of_order, schedule(out_of_order))
    holding.run(SECONDS * 0.8)
    assert source._base > 0 and kept._base == 0
    assert source._cursor == kept._cursor > source._base
    assert len(source._pending) < len(kept._pending)
    assert pickle.dumps(source.state_dump()) == pickle.dumps(kept.state_dump())


@ORDERS
def test_a_snapshot_from_before_letting_go_is_refused(out_of_order):
    runtime, source, _ = windowed_engine(out_of_order, schedule(out_of_order))
    runtime.run(1)
    early = capture_snapshot(runtime.director)
    runtime.run(SECONDS * 0.8)
    assert source._base > early["actors"]["src"]["plain"]["_cursor"]
    with pytest.raises(CheckpointError, match="let go"):
        restore_snapshot(runtime.director, early)


def test_feed_order_check_survives_letting_go():
    runtime, source, _ = windowed_engine(False)
    for index in range(5):
        source.feed(chunk(index, False))
        runtime.run(index + 1)
    assert source._base > 0 and source.exhausted()
    last = source._pending[-1][0]
    with pytest.raises(ActorError, match="append"):
        source.feed([(last - 1, "late")])


# ---------------------------------------------------------------------------
# Migration after the donor let go of arrivals
# ---------------------------------------------------------------------------
HORIZON_S = 60


def lr_config(disorder_s):
    workload = WorkloadConfig(
        duration_s=HORIZON_S, peak_rate=80, seed=1, l_rating=4.0,
        disorder_s=disorder_s,
    )
    return ExperimentConfig(
        scheduler=SchedulerSpec(kind="FIFO"),
        workload=workload,
        seeds=(1,),
        frontier="track" if disorder_s else None,
    )


def lr_sources(engine):
    return [
        actor
        for actor in engine.system.workflow.actors.values()
        if isinstance(actor, SourceActor)
    ]


@pytest.mark.parametrize("disorder_s", [0, 3])
def test_envelope_after_letting_go_resumes_bit_identically(disorder_s):
    config = lr_config(disorder_s)
    key_fn = shard_key_fn("xway")
    workload = LinearRoadWorkload(replace(config.workload, seed=1))
    arrivals = [row for row in workload.arrivals() if key_fn(row[1]) == 1]
    reference = build_shard_engine(config, 1, "xway", 1, arrivals=arrivals)
    reference.director.initialize_all()
    reference.runtime.run(HORIZON_S)
    expected = canonical_run_traces(reference.system)
    assert expected["toll"]

    donor = build_shard_engine(config, 1, "xway", 1, arrivals=arrivals)
    donor.director.initialize_all()
    donor.runtime.run(HORIZON_S * 3 / 4)
    assert all(source._base > 0 for source in lr_sources(donor))
    envelope = pickle.loads(pickle.dumps(make_envelope(donor)))
    adopter = build_shard_engine(config, 1, "xway", 1)
    apply_envelope(adopter, envelope)
    adopter.runtime.run(HORIZON_S)
    assert canonical_run_traces(adopter.system) == expected


def test_an_envelope_after_shedding_and_letting_go_applies():
    # Shed arrivals pass the cursor without entering the reorder heap and
    # are never released: letting go of them would leave the release
    # count below ``_base``, which a restore refuses.
    config = lr_config(3)
    key_fn = shard_key_fn("xway")
    workload = LinearRoadWorkload(replace(config.workload, seed=1))
    arrivals = [row for row in workload.arrivals() if key_fn(row[1]) == 1]
    donor = build_shard_engine(config, 1, "xway", 1, arrivals=arrivals)
    donor.director.initialize_all()
    donor.runtime.run(HORIZON_S / 4)
    sources = lr_sources(donor)
    now = donor.clock.now_us
    shed = sum(source.shed_due(now + 8_000_000, 0) for source in sources)
    assert shed > 0
    donor.runtime.run(HORIZON_S - 8)
    assert all(source._base > 0 for source in sources)
    assert any(source._cursor > source._released_count for source in sources)
    envelope = pickle.loads(pickle.dumps(make_envelope(donor)))
    adopter = build_shard_engine(config, 1, "xway", 1)
    apply_envelope(adopter, envelope)
    for source in sources:
        adopted = adopter.system.workflow.actors[source.name]
        assert adopted._cursor == source._cursor
        assert adopted._released_count == source._released_count
    adopter.runtime.run(HORIZON_S)
    assert all(source.exhausted() for source in lr_sources(adopter))


def test_migrating_a_disordered_shard_keeps_the_merged_output():
    config = lr_config(3)
    plain = run_sharded(config, seed=1, shards=2)
    migrated = run_sharded(
        config,
        seed=1,
        shards=2,
        migrations=[ShardMigration(at_s=40, group=0, to_worker=1)],
    )
    assert [m[1:] for m in migrated.migrations] == [(0, 0, 1)]
    assert migrated.toll_trace == plain.toll_trace
    assert migrated.accident_trace == plain.accident_trace

"""One engine assembly, one manifest record — for every placement.

``repro.harness.experiment.build_engine`` is the only place an
``ExperimentConfig`` becomes an engine.  These tests pin what follows
from that:

* placement cannot change structure — the engine built for a single
  process and the one built for a logical shard agree on everything but
  what the builder's ``shard`` argument names;
* the validation a single-process run gets, a sharded run and a resume
  get too — a checkpoint of a scheduler kind no longer shipped included;
* ``repro resume`` on a shard directory honours ``replay_deadletters``;
* the manifest record is derived from the dataclasses and round-trips.
"""

from __future__ import annotations

import json
import re
import zlib
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.checkpoint import CheckpointManifest, DirectoryCheckpointStore
from repro.checkpoint.snapshot import structure_fingerprint
from repro.core.exceptions import SimulationError
from repro.harness import (
    build_engine,
    checkpoint_meta,
    config_from_meta,
    default_cost_model,
    ExperimentConfig,
    resume_run,
    run_once,
    run_sharded,
    SchedulerSpec,
)
from repro.harness.cli import main
from repro.harness.configs import RUN_LOCAL_FIELDS
from repro.linearroad.generator import AccidentScript, WorkloadConfig
from repro.overload import QoSPolicy
from repro.shard.routing import shard_salt, shard_seed

_FAULTS = "TollCalculation:rate=0.5,seed=5"


def _config(kind="FIFO", **overrides) -> ExperimentConfig:
    workload = overrides.pop(
        "workload", WorkloadConfig(duration_s=60, peak_rate=80, l_rating=4.0)
    )
    return ExperimentConfig(
        SchedulerSpec(kind), workload=workload, seeds=(1,), **overrides
    )


# ---------------------------------------------------------------------------
# Placement cannot change structure
# ---------------------------------------------------------------------------
_MATRIX = {
    "plain": {},
    "fuse": {"fuse": True},
    "qos": {"qos": QoSPolicy(latency_slo_s=5.0, max_ready_backlog=5_000)},
    "track": {"frontier": "track"},
    "close": {"frontier": "close", "lateness": "drop"},
    "faults": {"fault_spec": _FAULTS},
    "checkpointing": {"checkpoint_every_s": 10.0},
}
_SHARD = {"key": "xway", "group": 2, "groups": [0, 1, 2, 3]}


def _component_types(engine) -> dict:
    director = engine.director
    workflow = engine.system.workflow
    return {
        "director": type(director),
        "scheduler": type(director.scheduler),
        "cost_model": type(director.cost_model),
        "overload": type(director.overload),
        "frontier": type(director.frontier),
        "lateness": type(director.frontier_lateness),
        "fault_policy": director.fault_policy,
        "checkpointer": type(engine.checkpointer),
        "runtime": type(engine.runtime),
        "injectors": [
            (injector.actor.name, injector.specs)
            for injector in engine.injectors
        ],
        "receivers": {
            port.full_name: (
                type(port.receiver),
                # All of the window clause but the formation timeout
                # (and the group-by closure, distinct per build).
                None if port.window is None else replace(
                    port.window,
                    timeout=None,
                    group_by=port.window.group_by is not None,
                ),
            )
            for actor in workflow.actors.values()
            for port in actor.input_ports.values()
        },
    }


def _timeouts(engine) -> list:
    return [
        port.window.timeout
        for actor in engine.system.workflow.actors.values()
        for port in actor.input_ports.values()
        if port.window is not None and port.window.timeout is not None
    ]


@pytest.mark.parametrize("case", sorted(_MATRIX))
def test_placement_cannot_change_structure(case, tmp_path):
    overrides = dict(_MATRIX[case])
    if case == "checkpointing":
        overrides["checkpoint_dir"] = str(tmp_path)
    config = _config(**overrides)
    single = build_engine(config, 1)
    shard = build_engine(config, 1, shard=_SHARD, arrivals=())

    assert structure_fingerprint(single.director) == structure_fingerprint(
        shard.director
    )
    assert _component_types(single) == _component_types(shard)

    # ...and they differ in exactly what the shard argument names.
    name = "shard:xway=2"
    base = config.cost_seed + 1
    assert (
        single.director.cost_model.state_dump()
        == default_cost_model(seed=base).state_dump()
    )
    assert (
        shard.director.cost_model.state_dump()
        == default_cost_model(seed=shard_seed(base, name)).state_dump()
    )
    assert _timeouts(single) and not _timeouts(shard)
    assert single.shard is None and shard.shard == _SHARD
    if single.director.frontier is not None:
        assert single.director.frontier.external is False
        assert shard.director.frontier.external is True
    if single.injectors:
        salt = shard_salt(name)
        assert salt and [
            rng.getstate()
            for injector in shard.injectors
            for rng in injector._rngs
        ] != [
            rng.getstate()
            for injector in single.injectors
            for rng in injector._rngs
        ]
    if single.checkpointer is not None:
        assert single.checkpointer.store.directory == tmp_path
        assert shard.checkpointer.store.directory == tmp_path / "shard-2"
        assert single.checkpointer.shard is None
        assert shard.checkpointer.shard == _SHARD
        assert single.checkpointer.meta == shard.checkpointer.meta
        assert single.checkpointer.every_us == shard.checkpointer.every_us


def test_each_wiring_decision_is_written_once():
    """Census: one construction site each under harness/ + shard/."""
    root = Path(repro.__file__).parent
    text = "".join(
        path.read_text()
        for package in ("harness", "shard")
        for path in sorted((root / package).glob("*.py"))
    )
    counts = {
        name: len(re.findall(rf"\b{name}\(", text))
        for name in (
            "SCWFDirector",
            "build_linear_road",
            "EngineCheckpointer",
            "RunResult",
        )
    }
    # ``class RunResult:`` has no paren; the one match is its constructor.
    assert counts == dict.fromkeys(counts, 1), counts
    stafilos = "".join(
        path.read_text() for path in sorted((root / "stafilos").rglob("*.py"))
    )
    assert len(re.findall(r"def _next_runnable_source\(", stafilos)) == 1
    everything = "".join(
        path.read_text() for path in sorted(root.rglob("*.py"))
    )
    assert (
        len(re.findall(r"internal, emitted = self\.run_iteration\(\)",
                       everything))
        == 1
    )


# ---------------------------------------------------------------------------
# The same refusal for every placement
# ---------------------------------------------------------------------------
_REFUSED = {
    "frontier": _config(
        workload=WorkloadConfig(
            duration_s=30, peak_rate=80, l_rating=4.0, disorder_s=3.0
        )
    ),
    "close": _config(frontier="track", lateness="drop"),
}


@pytest.mark.parametrize("word", sorted(_REFUSED))
def test_sharded_run_refuses_what_a_single_run_refuses(word):
    config = _REFUSED[word]
    with pytest.raises(SimulationError, match=word) as single:
        run_once(config, 1)
    with pytest.raises(SimulationError, match=word) as sharded:
        run_sharded(config, seed=1, shards=2)
    assert str(sharded.value) == str(single.value)


def test_sharded_pncwf_is_refused_before_any_worker_spawns():
    with pytest.raises(SimulationError, match="SCWF"):
        run_sharded(_config("PNCWF"), seed=1, shards=2)
    with pytest.raises(SimulationError, match="SCWF"):
        build_engine(_config("PNCWF"), 1, shard=_SHARD, arrivals=())


def test_checkpoint_of_a_retired_scheduler_kind_is_refused(
    tmp_path, monkeypatch, capsys
):
    """A manifest naming ADAPT (deleted) resumes into a one-line refusal."""
    meta = checkpoint_meta(_config("QBS", checkpoint_dir=str(tmp_path)), 1)
    meta["scheduler"]["kind"] = "ADAPT"
    payload = b"never read"
    DirectoryCheckpointStore(tmp_path).save(
        CheckpointManifest(1, 0, len(payload), zlib.crc32(payload), 0.0, meta),
        payload,
    )

    def build_linear_road(*args, **kwargs):
        raise AssertionError("the refusal must come before any building")

    monkeypatch.setattr(
        "repro.harness.experiment.build_linear_road", build_linear_road
    )
    refusal = (
        "unknown scheduler kind 'ADAPT'; supported kinds: "
        "QBS, RR, RB, FIFO, PNCWF"
    )
    with pytest.raises(SimulationError) as raised:
        resume_run(str(tmp_path))
    assert str(raised.value) == refusal
    with pytest.raises(SystemExit) as exited:
        main(["resume", str(tmp_path)])
    assert str(exited.value) == refusal

    with pytest.raises(SystemExit) as rejected:
        main(["run", "adaptive"])
    assert rejected.value.code == 2
    assert "invalid choice: 'adaptive'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Shard resume honours replay_deadletters
# ---------------------------------------------------------------------------
def test_shard_resume_replays_dead_letters(tmp_path):
    config = _config(
        fault_spec=_FAULTS,
        checkpoint_dir=str(tmp_path),
        checkpoint_every_s=15.0,
    )
    run_sharded(config, seed=1, shards=2)
    shard_dir = tmp_path / "shard-2"

    def resumed(replay: bool, into: Path):
        # Resume keeps checkpointing into its directory: work on a copy.
        import shutil

        shutil.copytree(shard_dir, into)
        result, director, _, manifest = resume_run(
            str(into), replay_deadletters=replay
        )
        assert manifest.shard["group"] == 2
        parked = [
            letter.timestamp_us
            for letter in director.supervisor.dead_letters
            if letter.timestamp_us < manifest.engine_time_us
        ]
        return result, parked

    plain, parked = resumed(False, tmp_path / "plain")
    assert parked, "the snapshot must hold dead letters for this to test"
    replayed, still_parked = resumed(True, tmp_path / "replayed")
    # Every restored letter was drained and re-injected: whatever is
    # parked at the end was dead-lettered after the resume point.
    assert still_parked == []
    assert replayed.internal_firings > plain.internal_firings


# ---------------------------------------------------------------------------
# The manifest record
# ---------------------------------------------------------------------------
_spec_strategy = st.builds(
    SchedulerSpec,
    kind=st.sampled_from(["QBS", "RR", "RB", "FIFO", "PNCWF"]),
    quantum_us=st.none() | st.integers(100, 50_000),
    source_interval=st.integers(1, 10),
)
_workload_strategy = st.builds(
    WorkloadConfig,
    l_rating=st.sampled_from([0.5, 1.0, 4.0]),
    duration_s=st.integers(1, 900),
    peak_rate=st.floats(1.0, 400.0),
    accidents=st.lists(
        st.builds(
            AccidentScript,
            at_s=st.integers(0, 300),
            clear_s=st.integers(301, 600),
            segment=st.integers(0, 99),
        ),
        max_size=3,
    ).map(tuple),
    congestion_segments=st.lists(st.integers(0, 99), max_size=3).map(tuple),
    burst_factor=st.sampled_from([1.0, 4.0]),
    disorder_s=st.sampled_from([0.0, 2.5]),
)
_qos_strategy = st.none() | st.builds(
    QoSPolicy,
    max_total_backlog=st.none() | st.integers(1, 10_000),
    admission_rate=st.none() | st.floats(1.0, 500.0),
    latency_slo_s=st.floats(0.5, 10.0),
    adapt_quantum=st.booleans(),
)
_config_strategy = st.builds(
    ExperimentConfig,
    scheduler=_spec_strategy,
    workload=_workload_strategy,
    seeds=st.just((1, 2, 3)),
    bucket_s=st.integers(1, 60),
    cost_seed=st.integers(0, 100),
    fault_spec=st.none() | st.just("Toll*:every=50;seg*:rate=0.1,seed=3"),
    checkpoint_dir=st.none() | st.just("/tmp/somewhere"),
    checkpoint_every_s=st.none() | st.floats(1.0, 60.0),
    checkpoint_retain=st.integers(1, 9),
    train_size=st.none() | st.integers(1, 64),
    qos=_qos_strategy,
    fuse=st.booleans(),
    frontier=st.sampled_from([None, "track", "close"]),
    lateness=st.sampled_from([None, "drop", "expired", "grace:500"]),
)


@given(config=_config_strategy, seed=st.integers(0, 99))
@settings(max_examples=60, deadline=None)
def test_manifest_round_trips_through_json(config, seed):
    meta = json.loads(json.dumps(checkpoint_meta(config, seed)))
    rebuilt, rebuilt_seed = config_from_meta(meta, "/resumed/here")
    assert rebuilt_seed == seed
    # Equal but for the run-local fields, which a manifest neither
    # records nor is read for.
    defaults = ExperimentConfig(config.scheduler)
    expected = replace(
        config,
        **{name: getattr(defaults, name) for name in RUN_LOCAL_FIELDS},
    )
    assert rebuilt == replace(
        expected, seeds=(seed,), checkpoint_dir="/resumed/here"
    )


def test_manifest_keys_are_the_engine_fields_plus_the_seed():
    meta = checkpoint_meta(_config("QBS"), 7)
    engine_fields = {f.name for f in fields(ExperimentConfig)}
    assert RUN_LOCAL_FIELDS < engine_fields
    assert set(meta) == (engine_fields - RUN_LOCAL_FIELDS) | {"seed"}
    assert meta["scheduler"] == {
        "kind": "QBS", "quantum_us": None, "source_interval": 5,
    }


def test_manifest_from_a_future_writer_still_loads():
    config = _config("RR", fuse=True, frontier="close")
    meta = checkpoint_meta(config, 7)
    meta["a_knob_from_the_future"] = {"anything": [1, 2, 3]}
    meta["scheduler"]["lookahead"] = 4
    meta["workload"]["weather"] = "rain"
    rebuilt, seed = config_from_meta(meta)
    assert seed == 7
    assert rebuilt == replace(config, seeds=(7,))

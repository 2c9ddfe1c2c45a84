"""Self-test of the benchmark harness (not part of tier-1; ~1 minute).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Checks the harness, not the engine's speed: every declared metric is
emitted with its unit, the traced layer table accounts for the whole root
span, the wrappers are gone after the traced run, ``BENCHMARK.json`` agrees
with ``metrics.py`` and with what ``run.py`` prints, and the driver's
command fails cleanly where the program's source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from metrics import CONTRACT_E2E, E2E, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_report() -> dict:
    return run.build_report(
        seed=2, scale=run.QUICK_SCALE, repeats=1, workloads=run.WORKLOAD_NAMES
    )


def test_benchmark_json_matches_the_metric_tables():
    assert [entry["name"] for entry in DECLARED["workloads"]] == list(
        run.WORKLOAD_NAMES
    )
    assert [
        (entry["name"], entry["unit"], entry["better"], entry["bound"])
        for entry in DECLARED["end_to_end"]
    ] == [
        (name, E2E[name].unit, E2E[name].better, E2E[name].bound)
        for name in CONTRACT_E2E
    ]
    assert {
        entry["name"]: (entry["unit"], entry["better"])
        for entry in DECLARED["per_layer"]
    } == {name: (layer.unit, layer.better) for name, layer in LAYERS.items()}
    assert DECLARED["paths"] == ["benchmarks/e2e"]


def test_workload_reasons_match_the_code():
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    assert [
        (entry["name"], entry["why"]) for entry in DECLARED["workloads"]
    ] == [(workload.name, workload.why) for workload in WORKLOADS.values()]


def test_quick_run_emits_every_declared_metric(quick_report):
    for workload, entry in quick_report["workloads"].items():
        assert entry["failed"] == 0, workload
        assert entry["attempted"] >= 1, workload
        for name in CONTRACT_E2E:
            metric = entry["end_to_end"][name]
            assert metric["unit"] == E2E[name].unit
            assert metric["median"] > 0, (workload, name)
        assert set(entry["per_layer"]) == set(LAYERS), workload
    batch = quick_report["workloads"]["lr_batch"]["end_to_end"]
    assert {"virt_latency_mean_s", "virt_thrash_rate_rps"} <= set(batch)


def test_layer_self_times_sum_to_the_root_span(quick_report):
    for workload, entry in quick_report["workloads"].items():
        root_s = entry["trace"]["root_s"]
        charged = sum(entry["layer_table"].values())
        assert charged == pytest.approx(root_s, rel=0.01), workload
        assert entry["per_layer"]["trace.root_s"] == root_s


def test_layers_light_up_where_predicted(quick_report):
    layers = {
        workload: entry["per_layer"]
        for workload, entry in quick_report["workloads"].items()
    }
    relay = layers["relay_chain"]
    assert relay["sql.select_calls"] == 0 and relay["recv.windows_out"] == 0
    assert relay["actor.MapActor.fire_calls"] > 0
    assert relay["obs.recording_tracer_ratio"] > 0
    assert layers["lr_batch"]["sql.select_calls"] > 0
    assert layers["lr_batch"]["ckpt.snapshot_bytes"] > 0
    assert layers["lr_live"]["runtime.idle_sleep_s"] > 0
    assert layers["lr_live"]["source.pump_calls"] > 0
    assert layers["lr_xway4_single"]["shard.chunks_sent"] == 0
    sharded = layers["lr_xway4_shard2"]
    assert sharded["shard.chunks_sent"] > 0 and sharded["shard.run_to_s"] > 0
    assert sharded["shard.busy_skew"] >= 1.0


def test_wrappers_are_removed_after_the_traced_run(quick_report):
    for workload, entry in quick_report["workloads"].items():
        assert entry["trace"]["wrappers_left"] == 0, workload
    sys.path.insert(0, str(ROOT / "src"))
    from instrument import install
    from repro.core.actors import SinkActor
    from repro.stafilos.scwf_director import SCWFDirector
    from tracing import SpanTracer

    before = (dict(vars(SCWFDirector)), dict(vars(SinkActor)))
    tracer = SpanTracer()
    install(tracer)
    assert vars(SCWFDirector)["run_iteration"] is not before[0]["run_iteration"]
    tracer.uninstall()
    assert (dict(vars(SCWFDirector)), dict(vars(SinkActor))) == before


def driver(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    command = [sys.executable, *DECLARED["command"][1:], *extra]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_line_carries_exactly_the_declared_metrics(trace, section):
    done = driver(
        ROOT, "--workload", "relay_chain", "--seed", "5",
        "--seconds", "1", "--trace", str(trace),
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert {
        name: value["unit"] for name, value in line["metrics"].items()
    } == {entry["name"]: entry["unit"] for entry in DECLARED[section]}


def test_driver_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    done = driver(
        tmp_path, "--workload", "relay_chain", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_compare_verdicts(quick_report, tmp_path, capsys):
    base = tmp_path / "a.json"
    base.write_text(json.dumps(quick_report))
    slower = json.loads(base.read_text())
    for entry in slower["workloads"].values():
        metric = entry["end_to_end"]["events_per_s"]
        for key in ("median", "q1", "q3"):
            metric[key] *= 0.5
    change = tmp_path / "b.json"
    change.write_text(json.dumps(slower))
    assert compare.main([str(base), str(base)]) == 0
    assert " worse" not in capsys.readouterr().out
    assert compare.main([str(base), str(change)]) == 1
    assert " worse" in capsys.readouterr().out

"""Checkpoint overhead on the figure-8 head-to-head workload.

The wave-aligned checkpoint subsystem (``repro.checkpoint``) must stay
cheap enough to leave on in production runs.  This benchmark runs the
figure-8 Linear Road workload under the best RR scheduler twice — once
plain, once publishing snapshots to a directory store at a cadence of
two checkpoints per run (mid-run + horizon) — and enforces two gates:

* **cost**: the engine's own ``checkpoint_duration_us_total`` counter
  (every capture/serialize/publish happens inside that timed section; the
  trigger checks outside it measure as noise) divided by the snapshot MiB
  it published (``checkpoint_bytes_total``) must stay within the
  baseline file's tolerance of the committed ``us_per_snapshot_mib`` in
  ``baselines/checkpoint.json``.  The gate used to be that counter as a
  share of the checkpointed run's wall time (< 10 %): a denominator that
  shrinks whenever the engine gets faster, so two engine speed-ups turned
  an unchanged 0.17 s of snapshotting from 6.5 % into 11 % and the gate
  red.  Cost per byte snapshotted does not move with engine speed.
* **purity**: the checkpointed run must produce the exact series,
  toll/alert counts and firing totals of the plain run.  Snapshots are
  pure observations; any divergence means a capture consumed a serial
  or drew from an RNG.

Snapshot payloads grow with engine time (windowed receivers accumulate
events over their horizons as Linear Road's load ramps), so the cadence
scales with ``REPRO_BENCH_DURATION``: two snapshots per run at the 120 s
smoke pass and at the paper's 600 s alike.  The share of wall time is
still printed, for the reader.
"""

import json
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from conftest import bench_duration_s, tune

from repro.checkpoint import DirectoryCheckpointStore
from repro.harness import figure8_configs
from repro.harness.experiment import _execute_seed

_BASELINE_FILE = Path(__file__).parent / "baselines" / "checkpoint.json"

_SEED = 7


def _fig8_rr_config():
    """The figure-8 head-to-head's best RR scheduler, env-tuned."""
    config = tune(figure8_configs()[0])
    assert config.scheduler.label == "RR-q40000"
    return config


def test_checkpoint_overhead_fig8(benchmark):
    """Checkpointed fig-8 run: baseline cost per MiB, pure snapshots."""
    config = _fig8_rr_config()
    cadence_s = bench_duration_s() / 2  # mid-run + horizon snapshot
    baseline = json.loads(_BASELINE_FILE.read_text())
    # Committed cost of snapshotting, per MiB of snapshot published.
    baseline_us_per_mib = float(
        baseline["benchmarks"]["test_checkpoint_overhead_fig8"][
            "us_per_snapshot_mib"
        ]
    )
    tolerance = float(baseline["tolerance"])
    checkpointed = replace(config, checkpoint_every_s=cadence_s)

    plain_result, _, _ = _execute_seed(config, _SEED)

    runs = []

    def run():
        with tempfile.TemporaryDirectory() as directory:
            store = DirectoryCheckpointStore(directory)
            started = time.perf_counter()
            result, director, _ = _execute_seed(
                checkpointed, _SEED, store=store
            )
            wall_s = time.perf_counter() - started
            counters = dict(director.statistics.engine_counters)
            runs.append((result, counters, wall_s))
        return result

    benchmark.pedantic(run, rounds=3, iterations=1)

    for result, counters, wall_s in runs:
        # Purity: a run that checkpoints is bit-identical to one that
        # does not — capture is a pure observation.
        assert result.series.responses_s == plain_result.series.responses_s
        assert result.tolls == plain_result.tolls
        assert result.alerts == plain_result.alerts
        assert result.internal_firings == plain_result.internal_firings

        # Cost: everything the checkpointer does (barrier, capture,
        # serialize, CRC, atomic publish) is inside the timed section.
        assert counters["checkpoints_total"] >= 2.0
        mib = counters["checkpoint_bytes_total"] / 2**20
        us_per_mib = counters["checkpoint_duration_us_total"] / mib
        assert us_per_mib <= baseline_us_per_mib * tolerance, (
            f"checkpointing cost {us_per_mib:,.0f} us per snapshot MiB "
            f"(baseline {baseline_us_per_mib:,.0f} x tolerance "
            f"{tolerance:g}; {counters['checkpoints_total']:.0f} snapshots, "
            f"{mib:.2f} MiB, {wall_s:.2f}s run)"
        )

    seconds = sum(c["checkpoint_duration_us_total"] / 1e6 for _, c, _ in runs)
    mib = sum(c["checkpoint_bytes_total"] / 2**20 for _, c, _ in runs)
    print(
        f"\ncheckpoint cost (fig-8 RR, cadence {cadence_s:.0f}s): "
        f"{seconds * 1e6 / mib:,.0f} us per snapshot MiB "
        f"(baseline {baseline_us_per_mib:,.0f}), "
        f"{seconds / sum(w for _, _, w in runs):.1%} of wall time "
        f"over {len(runs)} runs"
    )


def test_snapshot_cycle_cost(benchmark):
    """Capture+serialize cost of one loaded-engine snapshot in isolation.

    This is the number the ``__reduce__`` fast paths on events, tokens,
    wave-tags, windows and window-group states protect; the committed
    baseline gates it at 2x so the per-event pickle cost cannot quietly
    regress to the slot-protocol path (~5x slower).
    """
    from repro.checkpoint import serialize_snapshot
    from repro.checkpoint.snapshot import capture_snapshot

    config = _fig8_rr_config()
    # Run a fixed quarter-horizon so the snapshot has a loaded engine
    # (windowed receivers populated across thousands of group states).
    warm = config.scaled_duration(max(30, bench_duration_s() // 4))
    _, director, _ = _execute_seed(warm, _SEED)

    def cycle():
        return len(serialize_snapshot(capture_snapshot(director)))

    payload_bytes = benchmark.pedantic(cycle, rounds=3, iterations=1)
    assert payload_bytes > 0

"""Frontier-tracking overhead on the in-order figure-8 workload.

Timestamp-frontier progress tracking (``repro.frontier``) touches the
engine's hottest paths: every event entering flight adds a wave token,
every retired ready item removes one.  For the subsystem to stay on by
default in production runs, that accounting must be nearly free when
the stream is in order and no windows need frontier closure.  This
benchmark runs the figure-8 Linear Road workload under the best RR
scheduler twice — once plain, once with ``frontier="track"`` — and
enforces two gates:

* **overhead**: the wall time tracking adds (tracked minus plain, both
  measured over alternating rounds that each start on a collected heap,
  compared min-to-min, so transient machine load cannot fail the gate
  unless it hits every round), divided
  by the run's internal firings, must stay within the baseline file's
  tolerance of the committed ``extra_us_per_firing``.  The gate used to be
  that difference as a share of the plain run (<= 10 %): the tracker's
  ~0.1 s stayed put while two engine speed-ups shrank the 1.25 s it was
  divided by to 0.8 s, and the gate went red on an unchanged tracker.
  Cost per firing does not move with the rest of the engine.
* **purity**: the tracked run must produce the exact series,
  toll/alert counts and firing totals of the plain run.  Tracking is a
  pure observation — any divergence means the tracker consumed a
  serial, reordered a queue or perturbed the scheduler.

The committed baseline (``baselines/frontier.json``) additionally
bounds the tracked run's absolute wall time via ``check_baseline.py``,
so per-event tracking cost cannot quietly bloat between sessions.
"""

import gc
import json
import time
from dataclasses import replace
from pathlib import Path

from conftest import tune

from repro.harness import figure8_configs
from repro.harness.experiment import _execute_seed

_BASELINE_FILE = Path(__file__).parent / "baselines" / "frontier.json"

_SEED = 7
_ROUNDS = 3


def _fig8_rr_config():
    """The figure-8 head-to-head's best RR scheduler, env-tuned."""
    config = tune(figure8_configs()[0])
    assert config.scheduler.label == "RR-q40000"
    return config


def test_frontier_tracking_overhead_fig8(benchmark):
    """Tracked fig-8 run: baseline cost per firing, identical outputs."""
    config = _fig8_rr_config()
    tracked_config = replace(config, frontier="track")

    plain_walls = []
    plain_results = []

    def run_plain():
        # Every round starts on a heap holding no earlier round's garbage:
        # a dead engine left for the collector slows the next run by ~20 %,
        # which made whichever side ran first look cheaper.
        gc.collect()
        started = time.perf_counter()
        result, _, _ = _execute_seed(config, _SEED)
        plain_walls.append(time.perf_counter() - started)
        plain_results.append(result)
        gc.collect()

    runs = []

    def run():
        started = time.perf_counter()
        result, director, _ = _execute_seed(tracked_config, _SEED)
        wall_s = time.perf_counter() - started
        runs.append(
            (result, dict(director.statistics.engine_counters), wall_s)
        )
        return result

    # Plain and tracked rounds alternate (the untimed setup runs a plain
    # round before each tracked one), so a machine that switches speed
    # mid-bench slows both sides instead of only the later block.
    benchmark.pedantic(run, setup=run_plain, rounds=_ROUNDS, iterations=1)

    plain_result = plain_results[0]
    for result, counters, _ in runs:
        # Purity: tracking observes tokens, it never perturbs the run.
        assert result.series.responses_s == plain_result.series.responses_s
        assert result.tolls == plain_result.tolls
        assert result.alerts == plain_result.alerts
        assert result.internal_firings == plain_result.internal_firings
        # The tracker actually saw the workload's waves drain.
        assert counters["frontier_advances"] > 0
        assert counters["frontier_outstanding"] >= 0

    # Overhead: best tracked round against best plain round.  Means
    # would let one noisy round (a GC pause, a page-cache miss) fail
    # the gate on an otherwise healthy engine.
    tracked_s = min(wall_s for _, _, wall_s in runs)
    plain_s = min(plain_walls)
    extra_us = (tracked_s - plain_s) * 1e6 / plain_result.internal_firings
    baseline = json.loads(_BASELINE_FILE.read_text())
    budget_us = float(
        baseline["benchmarks"]["test_frontier_tracking_overhead_fig8"][
            "extra_us_per_firing"
        ]
    ) * float(baseline["tolerance"])
    assert extra_us <= budget_us, (
        f"frontier tracking cost {extra_us:.2f} us per firing over the "
        f"plain run ({tracked_s:.2f}s vs {plain_s:.2f}s, "
        f"{plain_result.internal_firings} firings; budget {budget_us:.2f})"
    )
    print(
        f"\nfrontier tracking overhead (fig-8 RR): {extra_us:+.2f} us per "
        f"firing, {tracked_s / plain_s - 1.0:+.1%} ({tracked_s:.2f}s "
        f"tracked vs {plain_s:.2f}s plain, best of {_ROUNDS})"
    )

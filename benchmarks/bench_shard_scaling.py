"""Sharded-execution scaling: 1/2/4 workers vs. the single-process run.

The tentpole numbers of the sharding work (``repro.shard``): wall-clock
time of a seeded 4-expressway Linear Road run, single-process and
partitioned by ``xway`` across 1, 2 and 4 worker processes.  Every
variant's merged canonical sink trace is asserted **bit-identical** to
the single-process oracle before any timing is compared, so a "speedup"
can never come from doing different work.

Both sides run the workflow *event-time pure* (window-formation
timeouts stripped — they fire on engine time, which is
placement-dependent; see :func:`repro.core.strip_window_timeouts`), so
the identity gate holds at any duration, not just short runs.

Gated two ways by ``make bench-shard``:

* absolute means vs. ``baselines/shard.json`` (2x tolerance) so
  coordinator/pipe overhead cannot silently blow up;
* the unconditional identity gate (``test_shard_identity_gate``).
"""

import pytest

from repro.harness import ExperimentConfig, SchedulerSpec
from repro.linearroad.generator import WorkloadConfig
from repro.shard import run_sharded, run_single_canonical

#: Four expressways -> four logical shards; modest peak rate keeps every
#: engine un-backlogged (identity across placements needs FIFO order to
#: be a pure projection of the global order).
CONFIG = ExperimentConfig(
    scheduler=SchedulerSpec(kind="FIFO"),
    workload=WorkloadConfig(
        duration_s=300, peak_rate=100, seed=1, l_rating=4.0
    ),
    seeds=(1,),
)

VARIANTS = ("single", "1", "2", "4")

#: Canonical traces per variant, filled as the benchmarks run so the
#: identity gate can compare without re-running everything.
_TRACES: dict = {}


def run_variant(label: str) -> dict:
    """One timed run; returns (and caches) its canonical traces."""
    if label == "single":
        traces = run_single_canonical(CONFIG, seed=1)
    else:
        result = run_sharded(CONFIG, seed=1, shards=int(label))
        traces = {
            "toll": result.toll_trace,
            "accident": result.accident_trace,
        }
    _TRACES[label] = traces
    return traces


@pytest.mark.parametrize("label", VARIANTS)
def test_shard_scaling(once, label):
    """Absolute wall-clock per variant (gated vs. shard.json)."""
    traces = once(run_variant, label)
    assert traces["toll"], f"variant {label} produced no tolls"


def test_shard_identity_gate():
    """Merged sharded output must be byte-identical to single-process.

    The acceptance gate of the sharding PR, asserted unconditionally on
    every machine: for 1, 2 and 4 workers the merged canonical trace
    equals the single-process oracle exactly.
    """
    single = _TRACES.get("single") or run_variant("single")
    for label in ("1", "2", "4"):
        sharded = _TRACES.get(label) or run_variant(label)
        assert sharded["toll"] == single["toll"], (
            f"{label}-shard merged toll trace diverged from the "
            "single-process run"
        )
        assert sharded["accident"] == single["accident"]

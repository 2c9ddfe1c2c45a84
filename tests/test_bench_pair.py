"""``tools/bench_pair.py``: what its exit status answers for.

The table is pure arithmetic over two lists of measurements, so it is
driven here with made-up runs: no checkout is exported and nothing is
timed.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pair", Path(__file__).parents[1] / "tools" / "bench_pair.py"
)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def runs(events_per_s, latency=794.394, digest="bf32c190bfffd66e"):
    """One side of N pairs; per-seed lists or one value for every seed."""
    count = len(events_per_s)

    def per_seed(value):
        return value if isinstance(value, list) else [value] * count

    return [
        {
            "metrics": {
                "events_per_s": rate,
                "latency_p50_ms": p50,
                "peak_rss_mb": 75.0,
                "setup_s": 0.1,
            },
            "failed": 0,
            "correct": True,
            "digest": sink,
        }
        for rate, p50, sink in zip(
            events_per_s, per_seed(latency), per_seed(digest)
        )
    ]


PARENT = [17_000.0 + 50 * seed for seed in range(10)]  # IQR 225
FASTER = [rate + 2_000 for rate in PARENT]


def status(workload, parent, change, claim=None):
    return bench_pair.tabulate(workload, "HEAD~1", parent, change, claim)[0]


def test_equal_outputs_and_no_regression_exit_zero():
    assert status("lr_batch", runs(PARENT), runs(FASTER)) == 0


def test_a_digest_differing_on_one_seed_fails():
    digests = ["bf32c190bfffd66e"] * 9 + ["e446541ed189b931"]
    assert status("lr_batch", runs(PARENT), runs(FASTER, digest=digests)) == 1


def test_virtual_clock_latency_must_be_equal_on_every_seed():
    moved = [794.394] * 9 + [794.676]  # well inside the 25 % bound
    change = runs(FASTER, latency=moved)
    assert status("lr_batch", runs(PARENT), change) == 1
    # ... while ``lr_live`` reads wall milliseconds, which never repeat.
    assert status("lr_live", runs(PARENT), change) == 0


@pytest.mark.parametrize(
    "change, met",
    [
        (FASTER, True),
        # Nine wins and a tie: nine tenths of the pairs, still met.
        (FASTER[:9] + PARENT[9:], True),
        # Eight wins and two ties: too few pairs won.
        (FASTER[:8] + PARENT[8:], False),
        # Every pair won, by less than the parent's own spread.
        ([rate + 100 for rate in PARENT], False),
    ],
)
def test_claim_follows_the_written_rule(change, met, capsys):
    code = status("lr_batch", runs(PARENT), runs(change), "events_per_s")
    assert code == (0 if met else 1)
    verdict = "claim events_per_s: MET" if met else "claim events_per_s: NOT MET"
    assert verdict in capsys.readouterr().out


def test_claim_on_a_lower_is_better_metric_needs_it_lower(capsys):
    parent = runs(PARENT, latency=[5.0 + 0.01 * seed for seed in range(10)])
    lower = runs(PARENT, latency=[4.0 + 0.01 * seed for seed in range(10)])
    assert status("lr_live", parent, lower, "latency_p50_ms") == 0
    assert status("lr_live", lower, parent, "latency_p50_ms") == 1

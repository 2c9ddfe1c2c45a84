#!/usr/bin/env python
"""Alternating parent/change pairs of the end-to-end workloads.

``make bench-pair BASE=<rev> W=<workload> N=10`` (``W=all``, or a
space-separated list, loops the workloads of ``BENCHMARK.json``: one
table each and a final worst-case line) — the one comparison
protocol that works on a box whose per-process speed flips between two
modes ~30 % apart: N pairs, pair *i* on seed *i*, alternating which side
runs first, each side one driver-form measurement of its *own* checkout::

    python benchmarks/e2e/run.py --workload W --seed i --seconds 10 --trace 0

The base revision is exported with ``git archive`` into a temporary
directory (nothing is registered in ``.git``, so an interrupted run leaves
nothing to prune); the change is the working tree this file sits in.

Prints, per end-to-end metric of ``BENCHMARK.json``: both medians and
quartiles, the change's win count (ties count for neither side) and on how
many seeds the two sides read exactly equal, plus per-seed sink-digest
equality.  Exits non-zero when a median is worse than the parent's by more
than the metric's ``bound``, when either side reports failed operations,
when the sink digests differ on a seed, or when ``latency_p50_ms`` differs
on a seed of a workload that reads it off the virtual clock (every one
except ``lr_live``).

``--claim METRIC`` (``make bench-pair ... CLAIM=events_per_s``) also
prints MET or NOT MET for a claimed gain, by the written rule — the change
wins at least nine tenths of the pairs, ties counting for neither side,
and the medians differ, in the metric's better direction, by more than
the distance between the quartiles of the parent's runs — and exits
non-zero on NOT MET.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = DECLARED["run_seconds"]
_DIGEST = re.compile(r" digest=(\w+)")
#: Workloads whose ``latency_p50_ms`` is wall time; everywhere else it is
#: read off the virtual clock and a seed fixes it exactly.
WALL_LATENCY = {"lr_live"}


def export_base(rev: str, target: Path) -> None:
    """Unpack the committed files of *rev* under *target*."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target)


def measure(checkout: Path, workload: str, seed: int) -> dict:
    """One driver-form measurement of *checkout*; metrics + digest."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [
            sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0",
        ],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{checkout}: run.py exited {done.returncode}\n{done.stderr}"
        )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    digest = _DIGEST.search(done.stdout)
    return {
        "metrics": {
            name: entry["value"] for name, entry in report["metrics"].items()
        },
        "failed": report["failed"],
        "correct": report["correct"],
        "digest": digest.group(1) if digest else None,
    }


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_pairs(base: Path, workload: str, pairs: int) -> tuple:
    """Measure *pairs* alternating pairs; ``(base runs, change runs)``."""
    base_runs, change_runs = [], []
    for seed in range(1, pairs + 1):
        order = ("base", "change") if seed % 2 else ("change", "base")
        pair = {}
        for side in order:
            checkout = base if side == "base" else ROOT
            pair[side] = measure(checkout, workload, seed)
        base_runs.append(pair["base"])
        change_runs.append(pair["change"])
        print(
            f"pair {seed} ({order[0]} first): " + "  ".join(
                f"{name} {pair['base']['metrics'][name]:.4g} -> "
                f"{pair['change']['metrics'][name]:.4g}"
                for name in pair["base"]["metrics"]
            ),
            flush=True,
        )
    return base_runs, change_runs


def tabulate(
    workload: str, rev: str, base_runs: list, change_runs: list,
    claim: str | None = None,
) -> tuple:
    """Print one workload's table; ``(exit status, worst row)``.

    The worst row is ``(share of its bound used, worse_by, workload,
    metric)`` for the metric whose median moved furthest the wrong way.
    """
    pairs = len(base_runs)
    status = 0
    rows = []
    print(
        f"\n{workload}: {pairs} alternating pairs, "
        f"parent {rev} -> change (seeds 1..{pairs})"
    )
    for entry in DECLARED["end_to_end"]:
        name = entry["name"]
        sign = 1 if entry["better"] == "higher" else -1
        parent = [run["metrics"][name] for run in base_runs]
        change = [run["metrics"][name] for run in change_runs]
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        equal = sum(p == c for p, c in zip(parent, change))
        worse_by = sign * (p_med - c_med) / p_med if p_med else 0.0
        verdict = "ok"
        if worse_by > entry["bound"]:
            verdict = f"WORSE by {worse_by:.1%} (bound {entry['bound']:.0%})"
            status = 1
        if (
            name == "latency_p50_ms"
            and workload not in WALL_LATENCY
            and equal < pairs
        ):
            verdict += f"; VIRTUAL CLOCK DIFFERS on {pairs - equal} seed(s)"
            status = 1
        rows.append((worse_by / entry["bound"], worse_by, workload, name))
        print(
            f"  {name:<15} {p_med:>11.4f} [{p_q1:.4f}, {p_q3:.4f}] -> "
            f"{c_med:>11.4f} [{c_q1:.4f}, {c_q3:.4f}] {entry['unit']:<4} "
            f"change wins {wins}/{pairs}, equal on {equal}  {verdict}"
        )
        if name == claim:
            gain = sign * (c_med - p_med)
            met = 10 * wins >= 9 * pairs and gain > p_q3 - p_q1
            print(
                f"  claim {name}: {'MET' if met else 'NOT MET'} — change "
                f"wins {wins}/{pairs} (needs nine tenths), median "
                f"{gain / p_med if p_med else 0.0:+.1%} = {gain:.4f} "
                f"{entry['unit']} against a parent inter-quartile "
                f"distance of {p_q3 - p_q1:.4f}"
            )
            if not met:
                status = 1
    same_digest = sum(
        p["digest"] == c["digest"] for p, c in zip(base_runs, change_runs)
    )
    failed = sum(run["failed"] for run in base_runs + change_runs)
    incorrect = sum(not run["correct"] for run in base_runs + change_runs)
    print(
        f"  sink digests equal on {same_digest}/{pairs} seeds; "
        f"failed operations {failed}; incorrect runs {incorrect}\n"
    )
    if failed or incorrect or same_digest < pairs:
        status = 1
    return status, max(rows)


def main(argv=None) -> int:
    declared = [entry["name"] for entry in DECLARED["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument(
        "--workload", required=True, nargs="+", choices=declared + ["all"],
        help="one or more workloads of BENCHMARK.json, or 'all'",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--claim", metavar="METRIC",
        choices=[entry["name"] for entry in DECLARED["end_to_end"]],
        help="end-to-end metric claimed to improve: print MET / NOT MET",
    )
    args = parser.parse_args(argv)
    workloads = declared if "all" in args.workload else args.workload

    status = 0
    worst = []
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        base = Path(tmp)
        export_base(args.base, base)
        for workload in workloads:
            runs = run_pairs(base, workload, args.pairs)
            failed, row = tabulate(workload, args.base, *runs, args.claim)
            status |= failed
            worst.append(row)
    _, worse_by, workload, name = max(worst)
    print(
        f"worst case over {len(workloads)} workload(s): {workload} {name} "
        f"median {-worse_by:+.1%} in its better direction "
        f"-> exit {status}"
    )
    return status


if __name__ == "__main__":
    sys.exit(main())

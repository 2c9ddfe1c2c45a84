"""Diff two benchmark reports: ``python benchmarks/e2e/compare.py A.json B.json``.

A is the base (the parent commit), B the change.  First table: one row per
workload x end-to-end metric with both medians and quartiles, the ratio
B/A with its base, the bound, and a verdict:

``better``      B's median moved the good way by more than the bound;
``worse``       it moved the bad way by more than the bound;
``same``        it stayed within the bound;
``unresolved``  either side's inter-quartile spread is wider than the
                bound, so the runs cannot tell.

Second table: per-layer self times and counts of the two traced runs, so a
claimed saving can be located in the layer that was changed.  Exit code 1
when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import allowance, E2E, LAYERS  # noqa: E402


def verdict(name: str, base: dict, change: dict) -> str:
    limit = allowance(name, base["median"])
    for side in (base, change):
        if side["q3"] - side["q1"] > limit:
            return "unresolved"
    gain = change["median"] - base["median"]
    if E2E[name].better == "lower":
        gain = -gain
    if gain > limit:
        return "better"
    if gain < -limit:
        return "worse"
    return "same"


def end_to_end_rows(base: dict, change: dict) -> list[tuple]:
    rows = []
    for workload, entry in base["workloads"].items():
        other = change["workloads"].get(workload)
        if other is None:
            continue
        for name, left in entry["end_to_end"].items():
            right = other["end_to_end"].get(name)
            if right is None:
                continue
            ratio = (
                right["median"] / left["median"] if left["median"] else float("nan")
            )
            rows.append(
                (workload, name, left, right, ratio, verdict(name, left, right))
            )
    return rows


def layer_rows(base: dict, change: dict) -> list[tuple]:
    rows = []
    for workload, entry in base["workloads"].items():
        other = change["workloads"].get(workload, {})
        left, right = entry.get("per_layer", {}), other.get("per_layer", {})
        for name in LAYERS:
            before, after = left.get(name, 0.0), right.get(name, 0.0)
            if before or after:
                rows.append((workload, name, before, after, after - before))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (json.loads(Path(path).read_text()) for path in argv)
    print(
        f"{'workload':16s} {'metric':22s} {'A median [q1, q3]':>34s} "
        f"{'B median [q1, q3]':>34s} {'B/A':>7s} {'bound':>6s} verdict"
    )
    worse = 0
    for workload, name, left, right, ratio, word in end_to_end_rows(base, change):
        worse += word == "worse"

        def cell(entry):
            return (
                f"{entry['median']:12.4f} [{entry['q1']:.4f}, {entry['q3']:.4f}]"
            )

        print(
            f"{workload:16s} {name:22s} {cell(left):>34s} {cell(right):>34s} "
            f"{ratio:7.3f} {E2E[name].bound:6.2f} {word} "
            f"(base {left['median']:.4f} {left['unit']}, n={left['n']}/{right['n']})"
        )
    print()
    print(
        f"{'workload':16s} {'layer metric':38s} {'A':>14s} {'B':>14s} "
        f"{'B-A':>14s} unit"
    )
    for workload, name, before, after, delta in layer_rows(base, change):
        print(
            f"{workload:16s} {name:38s} {before:14.4f} {after:14.4f} "
            f"{delta:+14.4f} {LAYERS[name].unit}"
        )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

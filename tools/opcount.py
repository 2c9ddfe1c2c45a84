#!/usr/bin/env python
"""Executed-bytecode counts of one end-to-end workload, parent and change.

``make opcount BASE=<rev> W=<workload> SCALE=0.25`` counts the bytecodes
one run of the workload executes, once on the committed files of
``BASE`` (exported with ``git archive``, as ``tools/bench_pair.py`` does)
and once on the working tree this file sits in, each in a fresh process
with a fixed hash seed.  It prints both totals, both sink digests and a
per-module breakdown, and exits non-zero when the digests differ.
``W=all`` counts every repeatable workload (:data:`REPEATABLE`) in turn
and exits non-zero when any of their digests differ.

A count is a cost figure that does not flip with the host's speed mode:
on a box whose wall clock moves ~30 % between processes it repeats
exactly for a given checkout and input.  It weighs every bytecode alike,
so it is evidence for a change to the dispatch path, not a claim — the
claim is ``make bench-pair``'s.  What is counted: the workload's own
``run`` call, after a discarded warm-up, with ``sys.settrace`` opcode
events; C code (``heapq``, ``sqlite3``, ``random``) counts as the one
bytecode that calls it.  ``lr_live`` runs on the wall clock, so its
count is not repeatable; a sharded workload counts the coordinator only,
whose polling loop makes that count vary between runs too.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The workloads whose count repeats exactly (``--workload all``).
REPEATABLE = ("lr_batch", "relay_chain", "lr_xway4_single")


def export(rev: str, target: Path) -> None:
    """Unpack the committed files of *rev* under *target*."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target)


def module_of(filename: str, checkout: Path) -> str:
    """``repro/stafilos/ready.py`` for a checkout file, else a basename."""
    for root in (checkout / "src", checkout / "benchmarks" / "e2e"):
        try:
            return Path(filename).resolve().relative_to(root).as_posix()
        except ValueError:
            continue
    return "(other) " + Path(filename).name


def count_run(checkout: Path, workload_name: str, scale: float, seed: int):
    """In this process: warm up, then count one run of the workload."""
    sys.path[:0] = [
        str(checkout / "src"), str(checkout / "benchmarks" / "e2e")
    ]
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    workload.warm_up(seed)
    inputs = workload.setup(seed, scale)
    counts: dict = {}
    get = counts.get

    def local(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            counts[code] = get(code, 0) + 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        raw = workload.run(inputs)
    finally:
        sys.settrace(None)
    by_module: dict[str, int] = {}
    for code, count in counts.items():
        module = module_of(code.co_filename, checkout)
        by_module[module] = by_module.get(module, 0) + count
    return {
        "opcodes": sum(by_module.values()),
        "digest": workload.finish(inputs, raw, oracle=False).digest,
        "by_module": by_module,
    }


def measure(checkout: Path, workload: str, scale: float, seed: int) -> dict:
    """:func:`count_run` of *checkout* in a fresh process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--count", str(checkout), "--workload", workload,
            "--scale", str(scale), "--seed", str(seed),
        ],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{checkout}: counting exited {done.returncode}\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(rev: str, base: dict, change: dict, top: int) -> int:
    """Print the comparison; 0 when the digests are equal."""
    delta = (change["opcodes"] - base["opcodes"]) / base["opcodes"]
    print(f"  parent {rev:<12} {base['opcodes']:>14,}  digest {base['digest']}")
    print(
        f"  change {'':<12} {change['opcodes']:>14,}  digest "
        f"{change['digest']}  ({delta:+.1%})"
    )
    modules = sorted(
        set(base["by_module"]) | set(change["by_module"]),
        key=lambda name: -base["by_module"].get(name, 0),
    )
    print(f"  {'module':<44} {'parent':>12} {'change':>12} {'share':>7}")
    for name in modules[:top]:
        before = base["by_module"].get(name, 0)
        after = change["by_module"].get(name, 0)
        print(
            f"  {name:<44} {before:>12,} {after:>12,} "
            f"{before / base['opcodes']:>7.1%}"
        )
    if base["digest"] != change["digest"]:
        print("  SINK DIGESTS DIFFER")
        return 1
    print("  sink digests equal")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="parent revision")
    parser.add_argument(
        "--workload", required=True,
        help="a workload name, or 'all' for every repeatable one",
    )
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=15,
                        help="modules listed, heaviest at the parent first")
    parser.add_argument("--count", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.count is not None:
        print(json.dumps(
            count_run(args.count, args.workload, args.scale, args.seed)
        ))
        return 0
    if args.base is None:
        parser.error("--base is required")
    workloads = (
        REPEATABLE if args.workload == "all" else (args.workload,)
    )
    status = 0
    with tempfile.TemporaryDirectory(prefix="opcount-") as scratch:
        checkout = Path(scratch)
        export(args.base, checkout)
        for workload in workloads:
            base = measure(checkout, workload, args.scale, args.seed)
            change = measure(ROOT, workload, args.scale, args.seed)
            print(
                f"{workload} seed {args.seed} scale {args.scale}: "
                "executed bytecodes"
            )
            status |= report(args.base, base, change, args.top)
    return status


if __name__ == "__main__":
    sys.exit(main())

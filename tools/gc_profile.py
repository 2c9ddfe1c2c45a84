#!/usr/bin/env python
"""What the cyclic collector costs one untraced run of an e2e workload.

``make gc-profile W=<workload>`` — the same sequence as one driver-form
measurement (``benchmarks/e2e/one_run.py``: tenth-size warm-up, the set-up
three times, ``gc.collect()``, one entry-point call), with a
``gc.callbacks`` hook around the entry-point call only.  Prints, per
generation, how many collections ran inside the call, the seconds they
took and the objects they freed, beside the call's wall time and the
process's peak RSS.

The hook sees this process only: a sharded workload's forked workers
collect on their own.  To read a parent commit, copy this file into a
checkout of it (``git archive <rev> | tar -x -C <dir>``) and run it there —
it measures the checkout it sits in.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from one_run import peak_rss_mb, SETUP_REPEATS  # noqa: E402  (adds src/ to the path)
from workloads import WORKLOADS  # noqa: E402


class CollectionLog:
    """Per-generation collection counts, seconds and freed objects."""

    def __init__(self) -> None:
        self.runs = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self.collected = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.seconds[generation] += time.perf_counter() - self._started
        self.runs[generation] += 1
        self.collected[generation] += info["collected"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    workload.warm_up(args.seed)
    for _ in range(SETUP_REPEATS):
        inputs = workload.setup(args.seed, 1.0)
    gc.collect()
    log = CollectionLog()
    gc.callbacks.append(log)
    try:
        started = time.perf_counter()
        workload.run(inputs)
        wall_s = time.perf_counter() - started
    finally:
        gc.callbacks.remove(log)

    print(f"{workload.name} seed {args.seed}: {inputs.events} events, "
          f"wall {wall_s:.3f} s, peak RSS "
          f"{peak_rss_mb(workload.forks_workers):.1f} MB")
    for generation in range(3):
        print(f"  gen {generation}: {log.runs[generation]:5d} collections  "
              f"{log.seconds[generation]:.4f} s  "
              f"{log.collected[generation]} objects freed")
    total = sum(log.seconds)
    print(f"  all  : {sum(log.runs):5d} collections  {total:.4f} s  "
          f"({total / wall_s:.1%} of the call)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""What one run of an e2e workload keeps alive, by allocation site.

``make mem-profile W=<workload>`` — the same sequence as one driver-form
measurement (``benchmarks/e2e/one_run.py``: tenth-size warm-up, the set-up
three times, ``gc.collect()``, one entry-point call), with ``tracemalloc``
on from before the set-ups.  At the end of the entry-point call, its
result still alive, prints the process's peak RSS, the traced bytes (live
and peak), the live bytes rolled up by layer — windows, events/waves,
source schedule, reports, sinks, other — and the top allocation sites.

A site is the innermost frame of its traceback inside ``src/repro``,
named by file, line and enclosing function; the layer follows from the
file and the function.  Peak RSS includes ``tracemalloc``'s own
bookkeeping, so it reads higher than the driver's ``peak_rss_mb``.
Tracing sees this process only: a sharded workload's forked workers
allocate on their own.  To read a parent commit, copy this file into a
checkout of it (``git archive <rev> | tar -x -C <dir>``) and run it there —
it measures the checkout it sits in.
"""

from __future__ import annotations

import argparse
import ast
import gc
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from one_run import peak_rss_mb, SETUP_REPEATS  # noqa: E402  (adds src/ to the path)
from workloads import WORKLOADS  # noqa: E402

PACKAGE = ROOT / "src" / "repro"
#: Frames kept per allocation: enough to climb out of stdlib helpers.
FRAMES = 8
#: Allocation sites printed, largest first.
TOP_SITES = 12
LAYERS = ("windows", "events/waves", "source schedule", "reports", "sinks",
          "other")
#: (module path under src/repro, function-name prefix or "") -> layer;
#: the first match wins, so specific rows come before whole files.
RULES = (
    ("core/windows.py", "", "windows"),
    ("core/receivers.py", "", "windows"),
    ("stafilos/tm_receiver.py", "", "windows"),
    ("core/events.py", "", "events/waves"),
    ("core/waves.py", "", "events/waves"),
    ("core/context.py", "", "events/waves"),
    ("core/ports.py", "", "events/waves"),
    ("core/actors.py", "SourceActor", "source schedule"),
    ("core/actors.py", "SinkActor", "sinks"),
    ("linearroad/types.py", "", "reports"),
    ("linearroad/generator.py", "", "source schedule"),
    ("linearroad/actors.py", "CarPositionSource", "source schedule"),
    ("linearroad/actors.py", "TollNotifier", "sinks"),
    ("linearroad/actors.py", "AccidentNotificationOut", "sinks"),
)


@lru_cache(maxsize=None)
def _functions(path: str) -> tuple:
    """``(first line, last line, qualified name)`` of every function."""
    try:
        tree = ast.parse(Path(path).read_text())
    except (OSError, SyntaxError):
        return ()
    spans = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    spans.append((child.lineno, child.end_lineno, name))
                visit(child, name + ".")
    visit(tree, "")
    return tuple(spans)


def function_at(path: str, line: int) -> str:
    """Innermost function of *path* enclosing *line* (module level: "")."""
    best = ""
    for first, last, name in _functions(path):
        if first <= line <= last and len(name) >= len(best):
            best = name
    return best


def site_of(traceback) -> tuple:
    """``(module, line, function)`` of the innermost ``src/repro`` frame."""
    for frame in reversed(traceback):  # innermost last in tracemalloc
        path = Path(frame.filename)
        if PACKAGE in path.parents:
            module = path.relative_to(PACKAGE).as_posix()
            function = function_at(frame.filename, frame.lineno)
            return module, frame.lineno, function
    frame = traceback[-1]
    return Path(frame.filename).name, frame.lineno, ""


def layer_of(module: str, function: str) -> str:
    for rule_module, prefix, layer in RULES:
        if module == rule_module and function.startswith(prefix):
            return layer
    return "other"


def profile(snapshot: tracemalloc.Snapshot) -> tuple[dict, list]:
    """Live bytes per layer, and ``(bytes, count, site, layer)`` per site."""
    by_site: dict = {}
    for stat in snapshot.statistics("traceback"):
        site = site_of(stat.traceback)
        size, count = by_site.get(site, (0, 0))
        by_site[site] = (size + stat.size, count + stat.count)
    by_layer = dict.fromkeys(LAYERS, 0)
    sites = []
    for site, (size, count) in by_site.items():
        layer = layer_of(site[0], site[2])
        by_layer[layer] += size
        sites.append((size, count, site, layer))
    sites.sort(key=lambda row: (-row[0], row[2]))
    return by_layer, sites


def measure(name: str, seed: int, scale: float = 1.0) -> dict:
    """Run the driver sequence of workload *name* with tracing on."""
    workload = WORKLOADS[name]
    workload.warm_up(seed)
    tracemalloc.start(FRAMES)
    try:
        for _ in range(SETUP_REPEATS):
            inputs = workload.setup(seed, scale)
        gc.collect()
        raw = workload.run(inputs)
        snapshot = tracemalloc.take_snapshot()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    snapshot = snapshot.filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    )
    by_layer, sites = profile(snapshot)
    del raw
    return {
        "head": f"{name} seed {seed}: {inputs.events} events, peak RSS "
                f"{peak_rss_mb(workload.forks_workers):.1f} MB (traced)",
        "live": live,
        "peak": peak,
        "by_layer": by_layer,
        "sites": sites,
    }


def report(result: dict) -> None:
    mib = 1024.0 * 1024.0
    print(f"{result['head']}, traced live {result['live'] / mib:.2f} MiB, "
          f"peak {result['peak'] / mib:.2f} MiB")
    by_layer = result["by_layer"]
    total = sum(by_layer.values()) or 1
    print("  live bytes by layer:")
    for layer in LAYERS:
        print(f"    {layer:<16} {by_layer[layer] / mib:8.3f} MiB "
              f"{by_layer[layer] / total:6.1%}")
    print(f"  top {TOP_SITES} sites:")
    for size, count, (module, line, function), layer in (
        result["sites"][:TOP_SITES]
    ):
        where = f"{module}:{line}" + (f" {function}" if function else "")
        print(f"    {size / mib:8.3f} MiB {count:9d} blocks  "
              f"{layer:<16} {where}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    report(measure(args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())

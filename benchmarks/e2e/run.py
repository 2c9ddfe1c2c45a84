"""End-to-end + per-layer wall-clock benchmark of the engine: one command.

Full report (every workload; what ``results/BENCH_<pr>.json`` is made of)::

    python benchmarks/e2e/run.py [--seed N] [--repeats R] [--workload W]

per workload: R timed runs, each in its own fresh process, strictly one
after the other (never run workloads concurrently: two cores), then one
traced run.  Every metric is printed by name with its unit, every output is
checked against a reference, and the report is written to ``--out``.

One measurement, as the benchmark driver calls it::

    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` repeats the timed run in fresh processes until S seconds have
been measured and prints the medians of the end-to-end metrics;
``--trace 1`` makes one traced run and prints the per-layer metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--check-repeat`` measures every workload twice on the same code and fails
when two medians disagree by more than the metric's own bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from metrics import allowance, E2E, LAYERS, summarize  # noqa: E402

#: The contract file; the self-test holds it equal to the code's tables.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(entry["name"] for entry in DECLARED["workloads"])
#: Metrics a fixed seed fixes exactly: two sets of runs must agree on them.
DETERMINISTIC = ("virt_latency_mean_s", "virt_thrash_rate_rps", "failed_share")
#: Scale of ``--quick`` (the harness self-test): a twentieth of the issue's
#: sizes is a fifth of ours.
QUICK_SCALE = 0.2
CHILD_TIMEOUT_S = 170


def one_run(workload: str, seed: int, scale: float, trace: bool, oracle: bool) -> dict:
    """One fresh process: warm-up, set-up, one timed run, checks."""
    command = [
        sys.executable,
        str(HERE / "one_run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--scale", repr(scale),
        "--trace", str(int(trace)),
        "--oracle", str(int(oracle)),
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload}: run failed with code {done.returncode}\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_runs(
    workload: str, seed: int, scale: float, repeats: int = 0, seconds: float = 0.0
) -> list[dict]:
    """Untraced runs: *repeats* of them, or until *seconds* are measured."""
    runs: list[dict] = []
    measured = 0.0
    while True:
        # The first run is compared with the oracle record by record; the
        # others must reproduce its digest, which proves the same.
        runs.append(one_run(workload, seed, scale, False, oracle=not runs))
        measured += runs[-1]["wall_s"]
        if repeats and len(runs) >= repeats:
            return runs
        if not repeats and measured >= seconds:
            return runs


def collect(runs: list[dict]) -> dict:
    """Medians, quartiles and spreads of a workload's runs, plus its checks."""
    names = [name for name in E2E if name in runs[0]["e2e"]]
    digests = {run["digest"] for run in runs}
    return {
        "events": runs[0]["events"],
        "end_to_end": {
            name: {
                **summarize([run["e2e"][name] for run in runs]),
                "unit": E2E[name].unit,
            }
            for name in names
        },
        "attempted": sum(run["checked"] for run in runs),
        # Every repeat of a seed must produce the same sink digest.
        "failed": sum(run["failed"] for run in runs) + len(digests) - 1,
        "digest": runs[0]["digest"],
        "latency_samples": runs[0]["latency"]["samples"],
        "notes": runs[0]["notes"],
    }


def print_end_to_end(workload: str, summary: dict) -> None:
    for name, entry in summary["end_to_end"].items():
        print(
            f"{workload:16s} {name:22s} {entry['median']:14.4f} {entry['unit']:5s}"
            f" q1={entry['q1']:.4f} q3={entry['q3']:.4f} n={entry['n']}"
            f" spread={entry['spread']:.3f}"
        )
    print(
        f"{workload:16s} checked={summary['attempted']} "
        f"failed={summary['failed']} digest={summary['digest']}"
    )


def print_layers(workload: str, trace: dict) -> None:
    root_s = trace["root_s"]
    print(f"{workload:16s} where the time goes (traced root {root_s:.3f} s):")
    for layer, self_s in trace["table"].items():
        print(f"{'':16s}   {layer:14s} {self_s:9.4f} s {self_s / root_s:6.1%}")
    for name, value in trace["values"].items():
        if value:
            print(f"{workload:16s} {name:38s} {value:16.4f} {LAYERS[name].unit}")


def driver_run(args) -> int:
    """One measurement in the benchmark driver's form."""
    workload = args.workload
    if args.trace:
        run = one_run(workload, args.seed, args.scale, True, oracle=True)
        print_layers(workload, run["trace"])
        attempted, failed = run["checked"], run["failed"]
        metrics = {
            entry["name"]: {
                "value": run["trace"]["values"][entry["name"]],
                "unit": entry["unit"],
            }
            for entry in DECLARED["per_layer"]
        }
    else:
        summary = collect(
            timed_runs(workload, args.seed, args.scale, seconds=args.seconds)
        )
        print_end_to_end(workload, summary)
        attempted, failed = summary["attempted"], summary["failed"]
        metrics = {
            entry["name"]: {
                "value": summary["end_to_end"][entry["name"]]["median"],
                "unit": entry["unit"],
            }
            for entry in DECLARED["end_to_end"]
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def build_report(seed: int, scale: float, repeats: int, workloads) -> dict:
    """Measure *workloads*: timed repeats, then one traced run, each."""
    report = {
        "benchmark": "benchmarks/e2e",
        "seed": seed,
        "repeats": repeats,
        "scale": scale,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    for workload in workloads:
        summary = collect(timed_runs(workload, seed, scale, repeats=repeats))
        print_end_to_end(workload, summary)
        trace = one_run(workload, seed, scale, True, oracle=False)["trace"]
        print_layers(workload, trace)
        if trace["digest"] != summary["digest"]:
            summary["failed"] += 1
        summary["per_layer"] = trace["values"]
        summary["layer_table"] = trace["table"]
        summary["trace"] = {
            "root_s": trace["root_s"],
            "spans": trace["spans"],
            "wrappers_left": trace["wrappers_left"],
        }
        report["workloads"][workload] = summary
    return report


def full_report(args, workloads) -> int:
    report = build_report(args.seed, args.scale, args.repeats, workloads)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {out}")
    failed = sum(entry["failed"] for entry in report["workloads"].values())
    return 1 if failed else 0


def check_repeat(args, workloads) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    disagreements = 0
    for workload in workloads:
        first, second = (
            collect(
                timed_runs(workload, args.seed, args.scale, repeats=args.repeats)
            )
            for _ in range(2)
        )
        for name, entry in first["end_to_end"].items():
            base, other = entry["median"], second["end_to_end"][name]["median"]
            limit = 0.0 if name in DETERMINISTIC else allowance(name, base)
            agree = abs(other - base) <= limit
            disagreements += not agree
            print(
                f"{workload:16s} {name:22s} {base:14.4f} {other:14.4f} "
                f"allowed +-{limit:.4f} {'ok' if agree else 'DISAGREE'}"
            )
        if first["digest"] != second["digest"]:
            disagreements += 1
            print(f"{workload:16s} digests differ between the two sets")
    return 1 if disagreements else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument(
        "--quick", action="store_true",
        help="self-test: reduced size, one repeat, no result file",
    )
    parser.add_argument(
        "--out", default=str(HERE / "results" / "BENCH_11.json"),
        help="where the full report is written",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        # Nothing to measure: the program's source is not in this checkout.
        print(f"no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.scale = QUICK_SCALE if args.quick else 1.0
    if args.quick:
        args.repeats, args.out = 1, None
    workloads = (args.workload,) if args.workload else WORKLOAD_NAMES
    if args.seconds is not None:
        if args.workload is None or args.trace is None:
            parser.error("--seconds needs --workload and --trace")
        return driver_run(args)
    if args.check_repeat:
        return check_repeat(args, workloads)
    return full_report(args, workloads)


if __name__ == "__main__":
    sys.exit(main())

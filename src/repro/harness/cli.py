"""Command-line interface: regenerate any of the paper's artifacts.

::

    python -m repro table1               # director taxonomy
    python -m repro table3               # experimental setup
    python -m repro fig5                 # workload ramp
    python -m repro fig8 --duration 300 --seeds 1   # scheduler face-off
    python -m repro run QBS --quantum 500 --duration 300
    python -m repro trace out.json --duration 120   # Chrome trace dump
    python -m repro --trace out.json run QBS        # trace any command
    python -m repro --inject-faults 'seg_stats:rate=0.02,seed=3' run QBS

Everything prints to stdout; durations and seed counts default to the
paper's (600 s, averaged over three runs takes a while — the default here
is one seed).  ``--trace PATH`` installs a :class:`RecordingTracer` around
whatever command runs and writes a ``chrome://tracing`` JSON on exit; the
``trace`` subcommand is the purpose-built variant that also knows how to
dump JSONL and Prometheus snapshots.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Optional, Sequence

from ..core.exceptions import SimulationError
from ..directors.taxonomy import render_table
from ..linearroad.generator import LinearRoadWorkload, WorkloadConfig
from ..linearroad.workflow import SHARD_KEYS
from ..observability import (
    export_chrome_trace,
    export_jsonl,
    export_prometheus,
    RecordingTracer,
    use_tracer,
)
from .configs import (
    ExperimentConfig,
    figure6_configs,
    figure7_configs,
    figure8_configs,
    QBS_BASIC_QUANTA_US,
    QBS_SOURCE_INTERVAL,
    RR_BASIC_QUANTA_US,
    SCHEDULER_KINDS,
    SchedulerSpec,
)
from .experiment import run_experiment
from .reporting import render_series_table, render_workload_figure


def _checked(config: ExperimentConfig, sharded: bool = False):
    """*config*, or a one-line exit saying why no engine runs it."""
    try:
        config.validate(sharded=sharded)
    except SimulationError as exc:
        raise SystemExit(str(exc)) from None
    return config


def _tune(config: ExperimentConfig, args) -> ExperimentConfig:
    """Fold the global flags (every subcommand has them) into *config*."""
    config = config.scaled_duration(args.duration)
    config = config.with_seeds(tuple(range(1, args.seeds + 1)))
    if args.inject_faults:
        config = replace(config, fault_spec=args.inject_faults)
    if args.fuse:
        config = replace(config, fuse=True)
    if args.out_of_order is not None:
        config = replace(config, frontier=args.out_of_order)
    if args.lateness is not None:
        from ..frontier import LatenessPolicy

        try:
            LatenessPolicy.parse(args.lateness)
        except ValueError as exc:
            raise SystemExit(f"--lateness: {exc}") from None
        config = replace(config, lateness=args.lateness)
    if args.watermark_disorder:
        config = replace(
            config,
            workload=replace(
                config.workload, disorder_s=args.watermark_disorder
            ),
        )
    if args.qos is not None:
        from ..core.exceptions import SchedulerError
        from ..overload import QoSPolicy

        try:
            config = replace(config, qos=QoSPolicy.parse(args.qos))
        except SchedulerError as exc:
            raise SystemExit(f"--qos: {exc}") from None
    return _checked(config)


def _print_fault_summary(results) -> None:
    """One line per chaos run: injections, failures, dead letters."""
    for result in results:
        if result.config.fault_spec is None:
            continue
        for seed, run in zip(result.config.seeds, result.runs):
            print(
                f"faults[{result.label} seed {seed}]: "
                f"{run.injected_faults} injected, "
                f"{run.failures} failed attempts, "
                f"{run.dead_letters} dead-lettered"
            )


def _cmd_table1(args) -> int:
    print(render_table())
    return 0


def _cmd_table3(args) -> int:
    print("Experimental setup (Table 3)")
    print(f"  Workload                        0.5 highways")
    print(f"  Experiment duration             {args.duration} sec")
    print(f"  QBS source scheduling interval  {QBS_SOURCE_INTERVAL}")
    print(f"  Basic Quantum (QBS) (us)        {QBS_BASIC_QUANTA_US}")
    print(f"  Basic Quantum (RR) (us)         {RR_BASIC_QUANTA_US}")
    print(f"  Priorities used (QBS)           5, 10")
    return 0


def _cmd_fig5(args) -> int:
    workload = LinearRoadWorkload(WorkloadConfig(duration_s=args.duration))
    print(render_workload_figure(workload.rate_series(bucket_s=30)))
    return 0


#: The figure commands: name -> (configs, table title, help line).
_FIGURES = {
    "fig6": (
        figure6_configs,
        "Figure 6: Response Time at TollNotification (RR)",
        "RR sensitivity",
    ),
    "fig7": (
        figure7_configs,
        "Figure 7: Response Time at TollNotification (QBS)",
        "QBS sensitivity",
    ),
    "fig8": (
        figure8_configs,
        "Figure 8: Response Time at TollNotification (all schedulers)",
        "all schedulers",
    ),
}


def _cmd_figure(args) -> int:
    configs, title, _ = _FIGURES[args.command]
    results = [run_experiment(_tune(config, args)) for config in configs()]
    print(render_series_table(results, title))
    _print_fault_summary(results)
    return 0


def _cmd_dot(args) -> int:
    from .experiment import build_engine

    config = ExperimentConfig(
        SchedulerSpec("FIFO"),
        workload=WorkloadConfig(duration_s=1, peak_rate=1),
    )
    print(build_engine(config, 1).system.workflow.to_dot())
    return 0


def _apply_checkpoint_flags(config: ExperimentConfig, args):
    """Fold ``--checkpoint-dir/--checkpoint-every/--checkpoint-retain`` in."""
    if args.checkpoint_dir is None:
        if args.checkpoint_every is not None:
            raise SystemExit(
                "--checkpoint-every requires --checkpoint-dir: without a "
                "directory nothing would be checkpointed"
            )
        return config
    if len(config.seeds) > 1:
        raise SystemExit(
            "--checkpoint-dir requires a single seed (--seeds 1): one "
            "directory holds one run's snapshot lineage"
        )
    return replace(
        config,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every_s=args.checkpoint_every,
        checkpoint_retain=args.checkpoint_retain,
    )


def _add_scheduler_flags(parser: argparse.ArgumentParser) -> None:
    """The policy parameters of ``run`` and ``trace`` (one declaration)."""
    parser.add_argument("--quantum", type=int, default=None,
                        help="basic quantum / slice in microseconds")
    parser.add_argument("--source-interval", type=int,
                        default=QBS_SOURCE_INTERVAL)


def _scheduler_choices(kinds) -> list[str]:
    """A scheduler argument's spellings: each kind lower- and upper-case."""
    return [kind.lower() for kind in kinds] + list(kinds)


def _scheduler_spec(args) -> SchedulerSpec:
    """The spec ``run``/``trace`` arguments name."""
    return SchedulerSpec(
        args.scheduler.upper(),
        quantum_us=args.quantum,
        source_interval=args.source_interval,
    )


def _cmd_run_sharded(config: ExperimentConfig, args) -> int:
    """``repro run --shards N``: partitioned execution, merged report."""
    from ..shard import run_sharded

    if len(config.seeds) > 1:
        raise SystemExit(
            "--shards requires a single seed (--seeds 1): the sharded "
            "coordinator merges one run's partitions"
        )
    result = run_sharded(
        config,
        seed=config.seeds[0],
        shards=args.shards,
        shard_key=args.shard_key,
    )
    print(
        f"sharded Linear Road run: {len(result.groups)} logical "
        f"shard(s) by {args.shard_key!r} on {result.workers} worker "
        f"process(es)"
    )
    print(
        f"merged totals: {result.tolls} tolls, {result.alerts} alerts, "
        f"{result.accidents_recorded} accidents recorded, "
        f"{result.internal_firings} internal firings"
    )
    if config.fault_spec is not None:
        print(
            f"faults: {result.injected_faults} injected, "
            f"{result.failures} failed attempts, "
            f"{result.dead_letters} dead-lettered"
        )
    if result.checkpoints:
        print(f"checkpoints: {result.checkpoints} snapshots published")
    for group in result.groups:
        shard = result.per_shard[group]
        print(
            f"  shard {args.shard_key}={group}: {shard['tolls']} tolls, "
            f"{shard['alerts']} alerts, "
            f"{shard['internal_firings']} firings, "
            f"backlog {shard['backlog_at_end']} at end"
        )
    print(f"peak per-shard backlog: {result.peak_backlog()}")
    transport = result.transport
    if transport:
        print(
            f"transport: {int(transport.get('shard_chunks_sent', 0))} "
            f"chunks / {int(transport.get('shard_bytes_sent', 0))} bytes, "
            f"peak {int(transport.get('shard_peak_inflight', 0))} in flight "
            f"(window {int(transport.get('shard_window', 0))}/worker), encode "
            f"{int(transport.get('shard_encode_us', 0))} us, decode "
            f"{int(transport.get('shard_decode_us', 0))} us"
        )
    for now_us, group, src, dst in result.migrations:
        print(
            f"  migrated shard {group} from worker {src} to {dst} "
            f"at t={now_us}us"
        )
    return 0


def _cmd_run(args) -> int:
    config = _apply_checkpoint_flags(
        _tune(ExperimentConfig(_scheduler_spec(args)), args), args
    )
    if args.shards > 1:
        return _cmd_run_sharded(_checked(config, sharded=True), args)
    result = run_experiment(config)
    print(
        render_series_table(
            [result], f"Linear Road under {result.label}"
        )
    )
    _print_fault_summary([result])
    return 0


def _cmd_resume(args) -> int:
    """Resume a crashed run from its checkpoint directory."""
    from .experiment import config_from_meta, ExperimentResult, resume_run

    try:
        result, director, _, manifest = resume_run(
            args.checkpoint_dir,
            replay_deadletters=args.replay_deadletters,
        )
    except SimulationError as exc:
        # The manifest names an engine ExperimentConfig.validate refuses
        # (a scheduler kind this build no longer ships, say).
        raise SystemExit(str(exc)) from None
    print(
        f"resumed from checkpoint {manifest.checkpoint_id} "
        f"(t={manifest.engine_time_us}us, "
        f"{manifest.payload_bytes} bytes)"
    )
    config, _ = config_from_meta(manifest.meta, args.checkpoint_dir)
    print(
        render_series_table(
            [ExperimentResult(config, result.series, [result])],
            "Resumed Linear Road run",
        )
    )
    print(
        f"run summary: {result.tolls} tolls, {result.alerts} alerts, "
        f"{result.internal_firings} internal firings, "
        f"{result.dead_letters} dead letters"
    )
    return 0


def _cmd_deadletter(args) -> int:
    """Inspect (and optionally replay) a checkpoint's dead letters."""
    from .experiment import restore_engine, resume_run

    if args.replay:
        result, director, _, manifest = resume_run(
            args.checkpoint_dir, replay_deadletters=True
        )
        print(
            f"replayed dead letters from checkpoint "
            f"{manifest.checkpoint_id}; run finished with "
            f"{result.dead_letters} still dead-lettered"
        )
        return 0
    director, _, manifest, _, _ = restore_engine(args.checkpoint_dir)
    letters = director.supervisor.dead_letters.letters()
    print(
        f"checkpoint {manifest.checkpoint_id} "
        f"(t={manifest.engine_time_us}us): {len(letters)} dead letter(s)"
    )
    for letter in letters:
        print(f"  {letter.describe()}")
    return 0


def _cmd_trace(args) -> int:
    """Run one Linear Road seed fully traced and export the artifacts."""
    from .experiment import run_traced

    config = _tune(ExperimentConfig(_scheduler_spec(args)), args)
    tracer = RecordingTracer(capacity=args.capacity)
    result, director, tracer = run_traced(config, seed=1, tracer=tracer)
    events = export_chrome_trace(
        tracer,
        args.out,
        metadata={
            "scheduler": config.label,
            "duration_s": config.workload.duration_s,
        },
    )
    print(
        f"{args.out}: {events} trace events "
        f"({tracer.emitted} emitted, {tracer.dropped} dropped by the "
        f"ring buffer) — load it at chrome://tracing"
    )
    if args.jsonl:
        count = export_jsonl(tracer, args.jsonl)
        print(f"{args.jsonl}: {count} JSONL records")
    if args.metrics:
        export_prometheus(
            director.statistics,
            now_us=director.current_time(),
            path_or_file=args.metrics,
            extra_gauges={
                "repro_backlog": director.backlog(),
                "repro_internal_firings": director.total_internal_firings,
            },
        )
        print(f"{args.metrics}: Prometheus metrics snapshot")
    print(
        f"run summary: {result.tolls} tolls, {result.alerts} alerts, "
        f"{result.internal_firings} internal firings"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree of ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "CONFLuEnCE/STAFiLOS reproduction: regenerate the paper's "
            "tables and figures"
        ),
    )
    parser.add_argument(
        "--duration",
        type=int,
        default=600,
        help="virtual seconds of the Linear Road experiment (default 600)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="seeded runs to average (the paper used 3; default 1)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "record an engine trace around the command and write a "
            "chrome://tracing JSON to PATH"
        ),
    )
    parser.add_argument(
        "--fuse",
        action="store_true",
        help=(
            "compile linear map-only segments into fused chains "
            "(repro.fusion) before the run: one dispatch traverses the "
            "whole segment with no intermediate queueing. Sink outputs, "
            "wave tags and per-actor counters are bit-identical to the "
            "unfused engine; SCWF schedulers only"
        ),
    )
    parser.add_argument(
        "--qos",
        metavar="SPEC",
        default=None,
        help=(
            "overload control (repro.overload.QoSPolicy), e.g. "
            "'slo=5,pause=20000,admit=400,adapt-quantum=1' — keys: "
            "backlog, strategy, protect, source-pending, admit, burst, "
            "pause, resume, slo, period, adapt-quantum"
        ),
    )
    parser.add_argument(
        "--out-of-order",
        nargs="?",
        const="close",
        choices=["track", "close"],
        default=None,
        metavar="MODE",
        help=(
            "frontier progress tracking (repro.frontier): 'track' "
            "observes wave tokens for counters/traces only, 'close' "
            "(the bare flag's default) additionally closes timed "
            "windows once the merged source/wave frontier passes them. "
            "SCWF schedulers only"
        ),
    )
    parser.add_argument(
        "--watermark-disorder",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "deliver Linear Road reports out of order: each report's "
            "delivery is delayed by a seeded uniform jitter up to "
            "SECONDS while its event timestamp is kept (requires "
            "--out-of-order)"
        ),
    )
    parser.add_argument(
        "--lateness",
        metavar="SPEC",
        default=None,
        help=(
            "how frontier-managed receivers treat events older than the "
            "applied frontier: 'drop', 'expired' (side-output to the "
            "port's expired route) or 'grace:<us>' (allowed lateness). "
            "Requires --out-of-order close"
        ),
    )
    parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help=(
            "deterministic fault injection, e.g. 'seg_stats:rate=0.05"
            ",seed=3;toll*:every=50' — the run switches to a resilient "
            "FaultPolicy (retries + dead letters) and reports a fault "
            "summary"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="director taxonomy").set_defaults(
        fn=_cmd_table1
    )
    sub.add_parser("table3", help="experimental setup").set_defaults(
        fn=_cmd_table3
    )
    sub.add_parser("fig5", help="workload ramp").set_defaults(fn=_cmd_fig5)
    for name, (_, _, summary) in _FIGURES.items():
        sub.add_parser(name, help=summary).set_defaults(fn=_cmd_figure)
    sub.add_parser(
        "dot", help="the Linear Road workflow as Graphviz DOT"
    ).set_defaults(fn=_cmd_dot)
    run = sub.add_parser("run", help="one scheduler configuration")
    run.add_argument("scheduler", choices=_scheduler_choices(SCHEDULER_KINDS))
    _add_scheduler_flags(run)
    run.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help=(
            "partition the run across N worker processes by --shard-key "
            "(repro.shard); merged sink output is bit-identical to the "
            "single-process run. SCWF schedulers, single seed only"
        ),
    )
    run.add_argument(
        "--shard-key", default="xway", metavar="KEY",
        choices=sorted(SHARD_KEYS),
        help=(
            "group-by key the workload is partitioned on: xway, "
            "direction or car_id (default xway)"
        ),
    )
    run.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="publish wave-aligned snapshots into DIR (single seed only)",
    )
    run.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="SECONDS",
        help="engine-time seconds between snapshots (requires "
             "--checkpoint-dir)",
    )
    run.add_argument(
        "--checkpoint-retain", type=int, default=3, metavar="K",
        help="snapshots kept on disk before pruning (default 3)",
    )
    run.set_defaults(fn=_cmd_run)
    resume = sub.add_parser(
        "resume",
        help="resume a crashed run from its checkpoint directory",
    )
    resume.add_argument(
        "checkpoint_dir", metavar="DIR",
        help="directory previously populated by run --checkpoint-dir",
    )
    resume.add_argument(
        "--replay-deadletters", action="store_true",
        help="re-enqueue the restored dead-letter queue before resuming",
    )
    resume.set_defaults(fn=_cmd_resume)
    deadletter = sub.add_parser(
        "deadletter",
        help="inspect or replay dead letters captured in a checkpoint",
    )
    deadletter.add_argument(
        "checkpoint_dir", metavar="DIR",
        help="directory previously populated by run --checkpoint-dir",
    )
    deadletter.add_argument(
        "--replay", action="store_true",
        help="re-enqueue the dead letters and continue the run",
    )
    deadletter.set_defaults(fn=_cmd_deadletter)
    trace = sub.add_parser(
        "trace",
        help="run a traced Linear Road experiment and dump the trace",
    )
    trace.add_argument(
        "out", nargs="?", default="trace.json",
        help="chrome://tracing JSON output path (default trace.json)",
    )
    trace.add_argument(
        "--scheduler", default="qbs",
        choices=_scheduler_choices(
            [kind for kind in SCHEDULER_KINDS if kind != "PNCWF"]
        ),
    )
    _add_scheduler_flags(trace)
    trace.add_argument(
        "--capacity", type=int, default=1_000_000,
        help="ring-buffer capacity in records (default 1e6)",
    )
    trace.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="also dump the raw records as JSON lines",
    )
    trace.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="also write a Prometheus text metrics snapshot",
    )
    trace.set_defaults(fn=_cmd_trace)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.trace and args.fn is not _cmd_trace:
        tracer = RecordingTracer()
        with use_tracer(tracer):
            code = args.fn(args)
        events = export_chrome_trace(tracer, args.trace)
        print(f"{args.trace}: {events} trace events")
        return code
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    raise SystemExit(main())

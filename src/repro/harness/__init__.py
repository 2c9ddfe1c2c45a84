"""Experiment harness: Table 3 configurations, runners, and renderers.

Each evaluation artifact of the paper maps to one bench module under
``benchmarks/``; the logic those benches share lives here.
"""

from ..shard import run_sharded  # ``repro run --shards N``
from .configs import (
    default_cost_model,
    DEFAULT_SEEDS,
    EXPERIMENT_DURATION_S,
    ExperimentConfig,
    figure6_configs,
    figure7_configs,
    figure8_configs,
    QBS_BASIC_QUANTA_US,
    QBS_SOURCE_INTERVAL,
    RR_BASIC_QUANTA_US,
    SchedulerSpec,
)
from .experiment import (
    build_engine,
    checkpoint_meta,
    config_from_meta,
    Engine,
    ExperimentResult,
    make_scheduler,
    restore_engine,
    resume_run,
    run_experiment,
    run_once,
    RunResult,
)
from .reporting import (
    latency_percentiles,
    render_comparison_summary,
    render_series_table,
    render_statistics,
    render_workload_figure,
    sparkline,
)

__all__ = [
    "build_engine",
    "checkpoint_meta",
    "config_from_meta",
    "default_cost_model",
    "DEFAULT_SEEDS",
    "Engine",
    "EXPERIMENT_DURATION_S",
    "ExperimentConfig",
    "ExperimentResult",
    "figure6_configs",
    "figure7_configs",
    "figure8_configs",
    "latency_percentiles",
    "make_scheduler",
    "QBS_BASIC_QUANTA_US",
    "QBS_SOURCE_INTERVAL",
    "render_comparison_summary",
    "render_series_table",
    "render_statistics",
    "render_workload_figure",
    "restore_engine",
    "resume_run",
    "RR_BASIC_QUANTA_US",
    "run_experiment",
    "run_once",
    "run_sharded",
    "RunResult",
    "SchedulerSpec",
    "sparkline",
]

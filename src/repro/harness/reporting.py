"""Renderers that regenerate the paper's tables and figures as text.

Figures are rendered as aligned data series (one column per configuration,
one row per time bucket) plus an ASCII sparkline — the same information the
paper plots, in a form that diffs cleanly and prints in CI logs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .experiment import ExperimentResult

_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: Sequence[float], ceiling: float = 10.0) -> str:
    """Map a series onto ASCII intensity levels, capped at *ceiling*."""
    chars = []
    for value in values:
        clipped = min(max(value, 0.0), ceiling)
        level = int(clipped / ceiling * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)


def render_series_table(
    results: Sequence[ExperimentResult],
    title: str,
    bucket_stride: int = 3,
) -> str:
    """One row per time bucket, one response-time column per config."""
    lines = [title, "=" * len(title)]
    labels = [result.label for result in results]
    width = max(12, *(len(label) for label in labels)) + 2
    header = "time(s)".ljust(9) + "".join(
        label.rjust(width) for label in labels
    )
    lines.append(header)
    lines.append("-" * len(header))
    all_times = sorted(
        {t for result in results for t in result.series.times_s}
    )
    for time_s in all_times[::bucket_stride]:
        row = [f"{time_s:<9d}"]
        for result in results:
            value = result.series.response_at(time_s)
            row.append(
                ("-" if value is None else f"{value:.3f}").rjust(width)
            )
        lines.append("".join(row))
    lines.append("")
    lines.append("response-time profile (0..10s, one char per bucket):")
    for result in results:
        lines.append(
            f"  {result.label:<14} |{sparkline(result.series.responses_s)}|"
        )
    lines.append("")
    lines.append("summary:")
    for result in results:
        thrash = result.thrash_time_s
        rate = result.thrash_input_rate()
        lines.append(
            f"  {result.label:<14} mean(pre-thrash)="
            f"{result.mean_pre_thrash_s():6.3f}s  "
            + (
                f"thrash at {thrash:>3d}s (~{rate:.0f} reports/s)"
                if thrash is not None
                else "no thrash within the experiment"
            )
        )
    return "\n".join(lines)


def render_workload_figure(
    rate_series: Sequence[tuple[int, float]], title: str = "Figure 5"
) -> str:
    """The input-rate ramp of the workload (reports per second)."""
    lines = [
        f"{title}: Workload of 0.5 highways (input reports/s over time)",
        "time(s)  rate      profile (0..220/s)",
    ]
    peak = max((rate for _, rate in rate_series), default=1.0)
    for time_s, rate in rate_series:
        bar = "#" * int(rate / max(peak, 1.0) * 50)
        lines.append(f"{time_s:<8d} {rate:7.1f}   {bar}")
    return "\n".join(lines)


def latency_percentiles(
    samples: Sequence[tuple[int, int]],
    percentiles: Sequence[float] = (50, 90, 99),
) -> dict[float, float]:
    """Response-time percentiles in seconds from raw (t, response) pairs."""
    if not samples:
        return {p: 0.0 for p in percentiles}
    ordered = sorted(response for _, response in samples)
    out = {}
    for p in percentiles:
        index = min(
            len(ordered) - 1, max(0, round(p / 100 * (len(ordered) - 1)))
        )
        out[p] = ordered[index] / 1_000_000
    return out


def render_statistics(registry, top: int = 20) -> str:
    """The runtime statistics module, as an aligned text table.

    The ``__engine__`` entry (engine-wide counters such as checkpoint
    totals) has no per-actor shape, so it renders as its own trailer
    section below the actor table.
    """
    snapshot = registry.snapshot()
    engine = snapshot.pop("__engine__", None)
    rows = sorted(
        snapshot.items(),
        key=lambda item: item[1]["invocations"],
        reverse=True,
    )[:top]
    lines = [
        f"{'actor':<26} {'firings':>9} {'avg cost (us)':>14} "
        f"{'selectivity':>12}"
    ]
    lines.append("-" * len(lines[0]))
    for name, stats in rows:
        lines.append(
            f"{name:<26} {stats['invocations']:>9d} "
            f"{stats['avg_cost_us']:>14.1f} {stats['selectivity']:>12.3f}"
        )
    if engine:
        lines.append("")
        lines.append("engine counters:")
        for key in sorted(engine):
            lines.append(f"  {key:<32} {engine[key]:>14.1f}")
    return "\n".join(lines)


def render_comparison_summary(
    results: Sequence[ExperimentResult],
) -> dict[str, dict[str, Optional[float]]]:
    """Machine-readable shape summary (used by benchmark assertions)."""
    return {
        result.label: {
            "mean_pre_thrash_s": result.mean_pre_thrash_s(),
            "thrash_time_s": result.thrash_time_s,
            "thrash_rate": result.thrash_input_rate(),
            "max_response_s": result.series.max_response_s(),
        }
        for result in results
    }

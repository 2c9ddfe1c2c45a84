"""Latency percentiles and the statistics renderer."""

import pytest

from repro.core import MapActor, SinkActor, SourceActor, Workflow
from repro.core.statistics import StatisticsRegistry
from repro.harness import latency_percentiles, render_statistics

US = 1_000_000


def samples(responses_s):
    return [(i * US, int(r * US)) for i, r in enumerate(responses_s)]


class TestLatencyPercentiles:
    def test_empty_returns_zeros(self):
        assert latency_percentiles([]) == {50: 0.0, 90: 0.0, 99: 0.0}

    def test_median_of_odd_series(self):
        result = latency_percentiles(samples([1, 2, 3]), percentiles=(50,))
        assert result[50] == 2.0

    def test_p99_close_to_max(self):
        data = samples(list(range(1, 101)))
        result = latency_percentiles(data, percentiles=(99,))
        assert result[99] == pytest.approx(99, abs=1)

    def test_unsorted_input_handled(self):
        result = latency_percentiles(samples([5, 1, 3]), percentiles=(50,))
        assert result[50] == 3.0


class TestRenderStatistics:
    def test_table_shape_and_ordering(self):
        registry = StatisticsRegistry()
        busy = MapActor("busy", lambda v: v)
        idle = MapActor("idle", lambda v: v)
        for _ in range(5):
            registry.record_invocation(busy, 100)
        registry.record_invocation(idle, 999)
        text = render_statistics(registry)
        lines = text.splitlines()
        assert "actor" in lines[0]
        # Most-fired first.
        assert lines[2].startswith("busy")
        assert "5" in lines[2]

    def test_top_limits_rows(self):
        registry = StatisticsRegistry()
        for index in range(30):
            registry.record_invocation(
                MapActor(f"a{index}", lambda v: v), 10
            )
        text = render_statistics(registry, top=5)
        assert len(text.splitlines()) == 2 + 5

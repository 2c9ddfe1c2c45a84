"""Actor statistics and the Rate-Based global metrics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.actors import Actor, SinkActor, SourceActor
from repro.core.statistics import (
    ActorStats,
    global_rate_metrics,
    RATE_HORIZON_US,
    rate_priorities,
    StatisticsRegistry,
)
from repro.core.workflow import Workflow


class Pass(Actor):
    def __init__(self, name):
        super().__init__(name)
        self.add_input("in")
        self.add_output("out")

    def fire(self, ctx):
        pass


class TestActorStats:
    def test_invocation_accounting(self):
        stats = ActorStats()
        stats.record_invocation(100)
        stats.record_invocation(300)
        assert stats.invocations == 2
        assert stats.avg_cost_us == 200

    def test_ewma_initialized_then_smoothed(self):
        stats = ActorStats()
        stats.record_invocation(100)
        assert stats.ewma_cost_us == 100
        stats.record_invocation(200)
        assert 100 < stats.ewma_cost_us < 200

    def test_selectivity_defaults_to_one(self):
        assert ActorStats().selectivity == 1.0

    def test_selectivity_ratio(self):
        stats = ActorStats()
        stats.record_input(4, 0)
        stats.record_output(2, 0)
        assert stats.selectivity == 0.5

    def test_rates_over_horizon(self):
        stats = ActorStats()
        for t in range(10):
            stats.record_input(1, t * 1_000_000)
        rate = stats.input_rate_per_s(10_000_000)
        assert rate == pytest.approx(1.0, rel=0.2)

    def test_old_samples_age_out(self):
        stats = ActorStats()
        stats.record_input(100, 0)
        assert stats.input_rate_per_s(60_000_000) == 0.0


class TestRateWindowRoundTrip:
    """The rate deques must survive ``state_dump``/``state_restore``
    mid-window: a restored run's ``input_rate``/``output_rate``/
    ``selectivity`` must equal the uninterrupted run's at every
    subsequent instant."""

    def _populated(self):
        from repro.core.statistics import RATE_HORIZON_US

        stats = ActorStats()
        for t in range(0, 8_000_000, 500_000):
            stats.record_input(2, t)
            stats.record_output(1, t)
        return stats, RATE_HORIZON_US

    def test_rates_identical_before_and_after_restore(self):
        stats, _ = self._populated()
        restored = ActorStats()
        restored.state_restore(stats.state_dump())
        for now in (8_000_000, 9_500_000, 12_000_000, 30_000_000):
            assert restored.input_rate_per_s(now) == stats.input_rate_per_s(
                now
            )
            assert restored.output_rate_per_s(
                now
            ) == stats.output_rate_per_s(now)
        assert restored.selectivity == stats.selectivity

    def test_dump_is_a_pure_observation(self):
        """Dumping must not trim the windows (a checkpointed run must
        stay bit-identical to an uninterrupted one)."""
        stats, _ = self._populated()
        before = stats.state_dump()
        after = stats.state_dump()
        assert before == after
        assert before["input_times"]  # deque content captured verbatim

    def test_sample_exactly_at_horizon_survives(self):
        """Boundary: ``_trim`` evicts strictly-older samples only — a
        sample sitting exactly at ``now - RATE_HORIZON_US`` is kept,
        both live and across a restore."""
        stats, horizon = self._populated()
        restored = ActorStats()
        restored.state_restore(stats.state_dump())
        # The oldest recorded sample is at t=0: probe at exactly
        # t=horizon (sample at the boundary, kept) and one past it
        # (sample strictly older, evicted).
        at_boundary = stats.input_rate_per_s(horizon)
        assert restored.input_rate_per_s(horizon) == at_boundary
        assert at_boundary > 0.0
        past = stats.input_rate_per_s(horizon + 500_000)
        assert restored.input_rate_per_s(horizon + 500_000) == past
        assert past < at_boundary


_TRAIN = st.tuples(
    st.lists(st.integers(min_value=1, max_value=5_000), max_size=12),
    # Input stamps are engine times: steps >= 0, sometimes past a horizon.
    st.lists(
        st.sampled_from([0, 0, 1, 700, 2_500_000, RATE_HORIZON_US + 1]),
        max_size=12,
    ),
    # Output stamps are event times: any order.
    st.lists(
        st.integers(min_value=0, max_value=4 * RATE_HORIZON_US), max_size=12
    ),
    st.booleans(),  # snapshot (which trims) after this train
)


class TestSeriesRecorders:
    """One series call per record kind equals the per-item calls it
    replaces: snapshots (rates included, across the horizon), the EWMA
    bit for bit and the registry's newest time."""

    @given(st.lists(_TRAIN, min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_series_equal_the_per_item_loop(self, trains):
        actor = Pass("a")
        per_item, series = StatisticsRegistry(), StatisticsRegistry()
        for registry in (per_item, series):
            registry.register(actor)
        now = 0
        for costs, steps, outputs, probe in trains:
            inputs = []
            for step in steps:
                now += step
                inputs.append(now)
            for cost in costs:
                per_item.record_invocation(actor, cost)
            for stamp in inputs:
                per_item.record_input(actor, 1, stamp)
            for stamp in outputs:
                per_item.record_output(actor, 1, stamp)
            series.get(actor).record_invocations(costs)
            series.record_inputs(actor, inputs)
            series.record_outputs(actor, outputs)
            if probe:
                assert series.snapshot() == per_item.snapshot()
            assert series._last_now_us == per_item._last_now_us
            held = series.get(actor).ewma_cost_us
            fed = per_item.get(actor).ewma_cost_us
            assert held is None is fed or held.hex() == fed.hex()
        for later in (0, RATE_HORIZON_US // 2, 2 * RATE_HORIZON_US):
            probe_at = series._last_now_us + later
            assert series.snapshot(probe_at) == per_item.snapshot(probe_at)


class TestRegistry:
    def test_register_is_idempotent(self):
        registry = StatisticsRegistry()
        actor = Pass("a")
        first = registry.register(actor)
        assert registry.register(actor) is first

    def test_snapshot_shape(self):
        registry = StatisticsRegistry()
        actor = Pass("a")
        registry.record_invocation(actor, 10)
        snap = registry.snapshot()
        assert snap["a"]["invocations"] == 1


def chain_workflow():
    """src -> a -> b -> sink, with a fan-out a -> c -> sink2."""
    wf = Workflow("w")
    src = SourceActor("src")
    src.add_output("out")
    a, b, c = Pass("a"), Pass("b"), Pass("c")
    sink, sink2 = SinkActor("sink"), SinkActor("sink2")
    wf.add_all([src, a, b, c, sink, sink2])
    wf.connect(src, a)
    wf.connect(a, b)
    wf.connect(b, sink)
    wf.connect(a.output("out"), c.input("in"))
    wf.connect(c, sink2)
    return wf


class TestGlobalRateMetrics:
    def test_terminal_actor_uses_local_metrics(self):
        wf = chain_workflow()
        registry = StatisticsRegistry()
        metrics = global_rate_metrics(wf, registry, default_cost_us=100)
        gs, gc = metrics["sink"]
        assert gs == 1.0
        assert gc == 100

    def test_chain_aggregation(self):
        wf = chain_workflow()
        registry = StatisticsRegistry()
        # b: selectivity 0.5, cost 200; sink default cost 100.
        b_stats = registry.register(wf.actors["b"])
        b_stats.record_input(10, 0)
        b_stats.record_output(5, 0)
        b_stats.record_invocation(200)
        metrics = global_rate_metrics(wf, registry, default_cost_us=100)
        gs_b, gc_b = metrics["b"]
        assert gs_b == pytest.approx(0.5)  # 0.5 * GS(sink)=1
        assert gc_b == pytest.approx(200 + 0.5 * 100)

    def test_shared_actor_sums_paths(self):
        wf = chain_workflow()
        registry = StatisticsRegistry()
        metrics = global_rate_metrics(wf, registry, default_cost_us=100)
        gs_a, gc_a = metrics["a"]
        # a has two downstream paths (b->sink and c->sink2), summed.
        gs_b, gc_b = metrics["b"]
        gs_c, gc_c = metrics["c"]
        assert gs_a == pytest.approx(1.0 * (gs_b + gs_c))
        assert gc_a == pytest.approx(100 + 1.0 * (gc_b + gc_c))

    def test_priorities_are_gs_over_gc(self):
        wf = chain_workflow()
        registry = StatisticsRegistry()
        metrics = global_rate_metrics(wf, registry, default_cost_us=100)
        priorities = rate_priorities(wf, registry, default_cost_us=100)
        for name, (gs, gc) in metrics.items():
            assert priorities[name] == pytest.approx(gs / gc)

    def test_cyclic_workflow_falls_back_to_local(self):
        wf = Workflow("loop")
        a, b = Pass("a"), Pass("b")
        wf.add_all([a, b])
        wf.connect(a, b)
        wf.connect(b, a)
        registry = StatisticsRegistry()
        metrics = global_rate_metrics(wf, registry, default_cost_us=50)
        assert metrics["a"] == (1.0, 50)

    def test_a_cycle_elsewhere_keeps_path_aggregation(self):
        # src -> a -> b -> sink, plus c (fed by src) on a self-loop: only
        # c is on a cycle, so a and b still aggregate down their path.
        wf = Workflow("side-loop")
        src = SourceActor("src")
        src.add_output("out")
        a, b, c, sink = Pass("a"), Pass("b"), Pass("c"), SinkActor("sink")
        wf.add_all([src, a, b, c, sink])
        wf.connect(src, a)
        wf.connect(a, b)
        wf.connect(b, sink)
        wf.connect(src, c)
        wf.connect(c, c)
        metrics = global_rate_metrics(
            wf, StatisticsRegistry(), default_cost_us=100
        )
        assert metrics["a"] == (1.0, 300)
        assert metrics["b"] == (1.0, 200)
        assert metrics["c"] == (1.0, 100)
        # The cyclic successor contributes its local pair to src.
        assert metrics["src"] == (2.0, 100 + 300 + 100)

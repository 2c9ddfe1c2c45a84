"""The observability layer: tracers, hook points, exporters.

Covers the tentpole's contract from four angles:

* the **NullTracer fast path** — with no tracer installed the engine
  produces bit-identical results and zero telemetry;
* the **RecordingTracer ring buffer** — bounded memory, eviction
  accounting, and hook-point coverage (fire spans, scheduler state
  transitions, queue-depth counters, window formations);
* the **Chrome trace exporter** — valid JSON, the object form with
  metadata, per-actor thread rows, monotone timestamps in, monotone
  timestamps out;
* the **Prometheus snapshot** — well-formed exposition text routed
  through ``StatisticsRegistry.snapshot``.
"""

import io
import json

import pytest

from repro.core.statistics import StatisticsRegistry
from repro.observability import (
    current_tracer,
    export_chrome_trace,
    export_jsonl,
    export_prometheus,
    NullTracer,
    RecordingTracer,
    set_tracer,
    snapshot_metrics,
    TraceRecord,
    use_tracer,
)
from repro.stafilos.schedulers import QuantumPriorityScheduler


ARRIVALS = [(i * 1_000, i) for i in range(20)]


def run_pipeline(pipeline_builder):
    system = pipeline_builder(list(ARRIVALS), QuantumPriorityScheduler(500))
    system["runtime"].run(1.0, drain=True)
    return system


class TestTracerInstallation:
    def test_default_is_null_tracer(self):
        assert isinstance(current_tracer(), NullTracer)
        assert not current_tracer().enabled

    def test_set_tracer_returns_previous(self):
        tracer = RecordingTracer(capacity=10)
        previous = set_tracer(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            set_tracer(previous)
        assert current_tracer() is previous

    def test_set_tracer_none_restores_null(self):
        previous = set_tracer(RecordingTracer(capacity=10))
        set_tracer(None)
        assert isinstance(current_tracer(), NullTracer)
        set_tracer(previous)

    def test_use_tracer_scopes_and_restores(self):
        tracer = RecordingTracer(capacity=10)
        before = current_tracer()
        with use_tracer(tracer) as installed:
            assert installed is tracer
            assert current_tracer() is tracer
        assert current_tracer() is before

    def test_use_tracer_restores_on_error(self):
        before = current_tracer()
        with pytest.raises(RuntimeError):
            with use_tracer(RecordingTracer(capacity=10)):
                raise RuntimeError("boom")
        assert current_tracer() is before


class TestNullTracerFastPath:
    def test_null_tracer_methods_are_noops(self):
        tracer = NullTracer()
        tracer.span("x", 0, 10, actor="a", k=1)
        tracer.instant("y", 5)
        tracer.counter("z", 7, 3.0)
        # Nothing to assert beyond "no exception, no state".
        assert not tracer.enabled

    def test_results_identical_with_and_without_tracer(
        self, pipeline_builder
    ):
        baseline = run_pipeline(pipeline_builder)
        tracer = RecordingTracer()
        with use_tracer(tracer):
            traced = run_pipeline(pipeline_builder)
        assert traced["sink"].values == baseline["sink"].values
        assert traced["clock"].now_us == baseline["clock"].now_us
        assert (
            traced["director"].total_internal_firings
            == baseline["director"].total_internal_firings
        )
        # And the traced run actually captured telemetry.
        assert len(tracer) > 0

    def test_a_traced_linear_road_run_is_the_untraced_run(self):
        """120 s of Linear Road (L = 0.5, RR): a recording tracer changes
        no sink record, statistic or clock tick — the fan-outs stage
        their trains either way."""
        from repro.harness import ExperimentConfig, SchedulerSpec
        from repro.harness.experiment import build_engine
        from repro.linearroad.generator import WorkloadConfig

        config = ExperimentConfig(
            SchedulerSpec("RR", quantum_us=40_000),
            workload=WorkloadConfig(duration_s=120),
            seeds=(1,),
        )

        def run():
            engine = build_engine(config, 1)
            engine.run()
            system = engine.system
            return (
                [
                    [(now, e.timestamp, e.value) for now, e in sink.items]
                    for sink in (system.toll_out, system.accident_out)
                ],
                engine.director.statistics.snapshot(),
                engine.clock.now_us,
            )

        untraced = run()
        assert untraced[0][0]  # tolls were notified
        tracer = RecordingTracer()
        with use_tracer(tracer):
            assert run() == untraced
        assert len(tracer) > 0

    def test_no_records_emitted_when_disabled(self, pipeline_builder):
        # A RecordingTracer exists but is NOT installed: the engine must
        # not have routed anything into it.
        bystander = RecordingTracer()
        run_pipeline(pipeline_builder)
        assert bystander.emitted == 0
        assert len(bystander) == 0


class TestRecordingTracer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RecordingTracer(capacity=0)

    def test_ring_buffer_bounds_and_counts_drops(self):
        tracer = RecordingTracer(capacity=5)
        for i in range(12):
            tracer.instant("tick", i)
        assert len(tracer) == 5
        assert tracer.emitted == 12
        assert tracer.dropped == 7
        # Oldest evicted first: the retained window is the 7 newest.
        assert [r.ts for r in tracer.records()] == [7, 8, 9, 10, 11]

    def test_clear_keeps_counters(self):
        tracer = RecordingTracer(capacity=3)
        for i in range(4):
            tracer.counter("depth", i, i)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.emitted == 4
        assert tracer.dropped == 1

    def test_record_kinds_and_to_dict(self):
        tracer = RecordingTracer()
        tracer.span("fire", 100, 40, actor="map", port="in")
        tracer.instant("decision", 150, actor="sched")
        tracer.counter("depth", 200, 3.0, actor="map")
        span, instant, counter = tracer.records()
        assert (span.kind, span.dur, span.args) == (
            "span", 40, {"port": "in"}
        )
        assert instant.kind == "instant"
        assert counter.args == {"value": 3.0}
        d = span.to_dict()
        assert d["name"] == "fire" and d["dur"] == 40
        assert "dur" not in instant.to_dict()

    def test_engine_hook_points_covered(self, pipeline_builder):
        """One traced run must show all acceptance-criterion record types."""
        from repro.core.windows import WindowSpec

        tracer = RecordingTracer()
        with use_tracer(tracer):
            system = pipeline_builder(
                list(ARRIVALS),
                QuantumPriorityScheduler(500),
                window=WindowSpec.tokens(4),
            )
            system["runtime"].run(1.0, drain=True)
        names = {record.name for record in tracer}
        assert "actor.fire" in names          # firing spans
        assert "sched.state" in names         # scheduler transitions
        assert "sched.queue_depth" in names   # queue-depth counters
        assert "sched.dispatch" in names      # scheduling decisions
        assert "window.ready" in names        # windowed delivery
        kinds = {record.kind for record in tracer}
        assert kinds >= {"span", "instant", "counter"}


class TestJSONLExport:
    def test_round_trips_every_record(self):
        tracer = RecordingTracer()
        tracer.span("fire", 0, 10, actor="a")
        tracer.instant("hit", 5, note="x")
        buffer = io.StringIO()
        count = export_jsonl(tracer, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert count == len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["kind"] == "span"
        assert parsed[1]["args"] == {"note": "x"}

    def test_writes_to_path(self, tmp_path):
        tracer = RecordingTracer()
        tracer.instant("hit", 1)
        path = tmp_path / "trace.jsonl"
        assert export_jsonl(tracer, str(path)) == 1
        assert json.loads(path.read_text())["name"] == "hit"


class TestChromeTraceExport:
    def test_valid_json_object_form(self, tmp_path):
        tracer = RecordingTracer()
        tracer.span("fire", 10, 5, actor="map")
        tracer.counter("depth", 12, 2.0, actor="map")
        tracer.instant("jump", 20)
        path = tmp_path / "trace.json"
        events = export_chrome_trace(
            tracer, str(path), metadata={"scheduler": "QBS"}
        )
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "traceEvents", "displayTimeUnit", "metadata"
        }
        assert payload["metadata"]["scheduler"] == "QBS"
        assert len(payload["traceEvents"]) == events

    def test_phases_and_thread_rows(self):
        tracer = RecordingTracer()
        tracer.span("fire", 10, 5, actor="map")
        tracer.counter("depth", 12, 2.0, actor="map")
        tracer.instant("jump", 20)  # engine-level: tid 0
        buffer = io.StringIO()
        export_chrome_trace(tracer, buffer)
        events = json.loads(buffer.getvalue())["traceEvents"]
        by_ph = {}
        for event in events:
            by_ph.setdefault(event["ph"], []).append(event)
        # thread_name metadata for the engine row and the actor row.
        assert {m["args"]["name"] for m in by_ph["M"]} == {"engine", "map"}
        (span,) = by_ph["X"]
        assert span["dur"] == 5 and span["tid"] != 0
        (counter,) = by_ph["C"]
        assert counter["name"] == "depth:map"
        assert counter["args"] == {"value": 2.0}
        (instant,) = by_ph["i"]
        assert instant["tid"] == 0 and instant["s"] == "g"

    def test_monotone_timestamps_preserved(self):
        tracer = RecordingTracer()
        for ts in range(0, 100, 10):
            tracer.instant("tick", ts)
        buffer = io.StringIO()
        export_chrome_trace(tracer, buffer)
        events = json.loads(buffer.getvalue())["traceEvents"]
        stamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert stamps == sorted(stamps)
        assert all(isinstance(ts, int) and ts >= 0 for ts in stamps)

    def test_dropped_records_disclosed_in_metadata(self):
        tracer = RecordingTracer(capacity=2)
        for i in range(5):
            tracer.instant("tick", i)
        buffer = io.StringIO()
        export_chrome_trace(tracer, buffer)
        payload = json.loads(buffer.getvalue())
        assert payload["metadata"]["dropped_records"] == 3

    def test_traced_engine_run_exports_clean(
        self, pipeline_builder, tmp_path
    ):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            run_pipeline(pipeline_builder)
        path = tmp_path / "run.json"
        events = export_chrome_trace(tracer, str(path))
        payload = json.loads(path.read_text())
        assert events == len(payload["traceEvents"]) > 0
        phases = {event["ph"] for event in payload["traceEvents"]}
        assert phases >= {"M", "X", "i", "C"}
        for event in payload["traceEvents"]:
            if event["ph"] != "M":
                assert event["ts"] >= 0


class TestPrometheusExport:
    def build_registry(self, pipeline_builder):
        system = run_pipeline(pipeline_builder)
        return system["director"].statistics, system["clock"].now_us

    def test_snapshot_metrics_routes_through_registry(
        self, pipeline_builder
    ):
        registry, now_us = self.build_registry(pipeline_builder)
        snapshot = snapshot_metrics(registry, now_us)
        assert snapshot == registry.snapshot(now_us)
        for stats in snapshot.values():
            assert {
                "invocations", "avg_cost_us", "ewma_cost_us",
                "inputs_total", "outputs_total", "selectivity",
                "input_rate_per_s", "output_rate_per_s",
            } <= set(stats)

    def test_text_parses_line_by_line(self, pipeline_builder):
        registry, now_us = self.build_registry(pipeline_builder)
        text = export_prometheus(
            registry, now_us, extra_gauges={"repro_backlog": 0}
        )
        seen_series = 0
        for line in text.strip().splitlines():
            if line.startswith("# HELP "):
                assert len(line.split(" ", 3)) == 4
                continue
            if line.startswith("# TYPE "):
                assert line.split(" ")[3] in ("counter", "gauge")
                continue
            # Sample line: name{label="..."}? value
            name_part, _, value_part = line.rpartition(" ")
            assert name_part
            float(value_part)  # must parse as a number
            seen_series += 1
        assert seen_series >= 3 * 8  # three actors x eight metrics

    def test_writes_to_file(self, pipeline_builder, tmp_path):
        registry, now_us = self.build_registry(pipeline_builder)
        path = tmp_path / "metrics.prom"
        text = export_prometheus(registry, now_us, path_or_file=str(path))
        assert path.read_text() == text
        assert 'repro_actor_invocations_total{actor="double"}' in text

    def test_label_escaping(self):
        registry = StatisticsRegistry()

        class Weird:
            name = 'ev"il\\actor'

        registry.get(Weird()).record_invocation(10)
        text = export_prometheus(registry, now_us=0)
        assert '{actor="ev\\"il\\\\actor"}' in text

    def test_label_newline_escaping(self):
        """Regression: a newline in an actor name must not split the
        sample line — the exposition format requires ``\\n`` escapes in
        label values, and an unescaped newline makes every scraper
        reject the whole page."""
        registry = StatisticsRegistry()

        class Hostile:
            name = 'bad\nactor"x\\y'

        registry.get(Hostile()).record_invocation(10)
        text = export_prometheus(registry, now_us=0)
        assert '{actor="bad\\nactor\\"x\\\\y"}' in text
        # Every non-comment line must still be a parseable sample.
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name_part, _, value_part = line.rpartition(" ")
            assert name_part, f"torn sample line: {line!r}"
            float(value_part)


class TestTraceRecordRepr:
    def test_repr_mentions_kind_and_actor(self):
        record = TraceRecord("span", "fire", 10, 5, actor="map")
        assert "span" in repr(record) and "map" in repr(record)

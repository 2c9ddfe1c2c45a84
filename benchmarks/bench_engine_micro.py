"""Microbenchmarks of the engine's hot paths (real wall time).

These justify the virtual-time substitution quantitatively: they measure
what one actor dispatch, one windowed put, and one parameterized toll query
cost in *this* Python implementation, which is the per-event overhead any
wall-clock run of the engine would pay.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.actors import MapActor, SinkActor, SourceActor
from repro.core.events import CWEvent
from repro.core.waves import WaveTag
from repro.core.windows import WindowOperator, WindowSpec
from repro.core.workflow import Workflow
from repro.linearroad.db import (
    ACCIDENT_AHEAD_QUERY,
    create_linear_road_database,
    TOLL_QUERY,
)
from repro.simulation import CostModel, SimulationRuntime, VirtualClock
from repro.stafilos import RoundRobinScheduler, SCWFDirector


def test_scheduler_dispatch_throughput(benchmark):
    """End-to-end events/second through the SCWF director."""
    n_events = 5_000

    def run():
        workflow = Workflow("micro")
        source = SourceActor(
            "src", arrivals=[(i, i) for i in range(n_events)]
        )
        source.add_output("out")
        relay = MapActor("relay", lambda v: v)
        sink = SinkActor("sink")
        workflow.add_all([source, relay, sink])
        workflow.connect(source, relay)
        workflow.connect(relay, sink)
        clock = VirtualClock()
        director = SCWFDirector(
            RoundRobinScheduler(10_000), clock, CostModel()
        )
        director.attach(workflow)
        SimulationRuntime(director, clock).run(10.0, drain=True)
        return len(sink.items)

    processed = benchmark.pedantic(run, rounds=3, iterations=1)
    assert processed == n_events


def test_relay_hop_cost(benchmark):
    """One hop — emit, route, receiver put, ready-queue admit, dispatch,
    fire — through source -> 12 MapActors -> sink at the default
    scheduler options; ``extra_info["us_per_hop"]`` is the mean per hop."""
    n_events, maps = 2_000, 12

    def setup():
        workflow = Workflow("relay-hop")
        source = SourceActor(
            "src", arrivals=[(100 * i, i) for i in range(n_events)]
        )
        source.add_output("out")
        chain = [
            source,
            *(MapActor(f"map{i}", lambda v: v + 1) for i in range(maps)),
            SinkActor("sink"),
        ]
        workflow.add_all(chain)
        for upstream, downstream in zip(chain, chain[1:]):
            workflow.connect(upstream, downstream)
        clock = VirtualClock()
        director = SCWFDirector(RoundRobinScheduler(), clock, CostModel())
        director.attach(workflow)
        return (SimulationRuntime(director, clock), chain[-1]), {}

    def run(runtime, sink):
        runtime.run(1.0, drain=True)
        return len(sink.items)

    processed = benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    assert processed == n_events
    hops = n_events * (maps + 1)  # every map's output plus the source's
    benchmark.extra_info["us_per_hop"] = round(
        benchmark.stats.stats.mean / hops * 1e6, 3
    )


def test_windowed_put_cost(benchmark):
    """Cost of one put through a grouped sliding window."""
    operator = WindowOperator(
        WindowSpec.tokens(4, 1, group_by=lambda e: e.value % 64)
    )
    events = [CWEvent(i, i, WaveTag.root(i + 1)) for i in range(10_000)]

    def run():
        total = 0
        for event in events:
            total += len(operator.put(event))
        return total

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_group_state_footprint(benchmark):
    """Bytes an idle window group keeps, exact: its state object, which
    is its own (empty) queue, for a token and a time window (Linear Road
    holds one of each per car for the whole run).  The timed part opens and drains
    10 000 groups; the gate is ``extra_info`` against the committed
    bytes — a group that grows by one slot fails, whatever the wall time."""
    committed = json.loads(
        (Path(__file__).parent / "baselines" / "engine_micro.json").read_text()
    )["benchmarks"]["test_group_state_footprint"]
    specs = {
        "bytes_per_idle_token_group": WindowSpec.tokens(4, 1, group_by="car"),
        "bytes_per_idle_time_group": WindowSpec.time(60, group_by="car"),
    }
    events = [CWEvent({"car": i}, i, WaveTag.root(i + 1)) for i in range(10_000)]

    def run():
        operators = {name: WindowOperator(spec) for name, spec in specs.items()}
        for operator in operators.values():
            for event in events:
                operator.put(event)
            operator.force_timeout(None)
        return operators

    operators = benchmark.pedantic(run, rounds=3, iterations=1)
    for name, operator in operators.items():
        assert operator.pending_count() == 0 and len(operator._groups) == 10_000
        sizes = {sys.getsizeof(state) for state in operator._groups.values()}
        assert len(sizes) == 1, sizes
        benchmark.extra_info[name] = sizes.pop()
        assert benchmark.extra_info[name] == committed[name]


def test_toll_query_latency(benchmark):
    """The paper's toll SELECT against a populated statistics table."""
    db = create_linear_road_database()
    for seg in range(100):
        db.execute(
            "INSERT INTO segmentStatistics VALUES (0, $seg, 0, $lav, $cars)",
            {"seg": seg, "lav": 30.0 + seg % 30, "cars": 40 + seg % 30},
        )
    for seg in (10, 40, 70):
        db.execute(
            "INSERT INTO accidentInSegment VALUES (0, 0, $seg, 999, 500)",
            {"seg": seg},
        )
    params = {"now": 520, "xway": 0, "segment": 41, "direction": 0}

    def run():
        return db.execute(TOLL_QUERY, params).scalar()

    toll = benchmark(run)
    assert toll == 0  # fresh accident at segment 41's horizon


def test_accident_ahead_query_empty_table(benchmark):
    """The per-position-report accident lookup when there is no accident:
    the per-call floor (statement-cache lookup, binding, one empty probe)."""
    db = create_linear_road_database()
    params = {"now": 520, "xway": 0, "segment": 41, "direction": 0}

    def run():
        return db.execute(ACCIDENT_AHEAD_QUERY, params).rows

    assert benchmark(run) == []


def test_sql_insert_or_replace_throughput(benchmark):
    db = create_linear_road_database()
    counter = iter(range(10_000_000))

    def run():
        seg = next(counter) % 100
        db.execute(
            "INSERT OR REPLACE INTO segmentStatistics "
            "VALUES (0, $seg, 0, 30.0, 55)",
            {"seg": seg},
        )

    benchmark(run)
    count = db.execute("SELECT COUNT(*) FROM segmentStatistics").scalar()
    assert count <= 100

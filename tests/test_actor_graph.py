"""The engine's actor graph: networkx's orders, without networkx.

``Workflow.graph()`` is a small standard-library digraph.  These tests
pin that a fresh ``import repro`` loads no third-party module, that the
SDF sub-workflows and the Rate-Based scheduler run with networkx
blocked, and that every answer the engine reads (nodes, edges,
successors, degree, topological order) equals networkx's on random
graphs with self-loops, duplicate edges and cycles.
"""

import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

from repro.core.workflow import _ActorGraph

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def test_import_repro_loads_neither_networkx_nor_numpy():
    completed = _run_python(
        """
        import sys
        import repro
        print(sorted({"networkx", "numpy"} & set(sys.modules)))
        """
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


def test_hierarchical_linear_road_and_rb_run_with_networkx_blocked():
    completed = _run_python(
        """
        import sys
        sys.modules["networkx"] = None  # any import of it now raises

        from repro.harness.configs import ExperimentConfig, SchedulerSpec
        from repro.harness.experiment import run_experiment
        from repro.linearroad import (
            LinearRoadWorkload,
            WorkloadConfig,
            build_linear_road,
        )
        from repro.simulation import CostModel, SimulationRuntime
        from repro.simulation import VirtualClock
        from repro.stafilos import RateBasedScheduler, SCWFDirector

        workload = WorkloadConfig(duration_s=60, peak_rate=40, seed=3)
        system = build_linear_road(
            LinearRoadWorkload(workload).arrivals(), hierarchical=True
        )
        clock = VirtualClock()
        director = SCWFDirector(RateBasedScheduler(), clock, CostModel())
        director.attach(system.workflow)
        SimulationRuntime(director, clock).run(60, drain=True)
        assert system.toll_out.notifications

        result = run_experiment(
            ExperimentConfig(
                SchedulerSpec("RB"), workload=workload, seeds=(1,)
            )
        )
        assert result.runs
        print("ok")
        """
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == "ok"


def _random_edges(rng: random.Random, names: list[str]) -> list:
    edges = [
        (rng.choice(names), rng.choice(names))
        for _ in range(rng.randint(0, 3 * len(names)))
    ]
    # Duplicates on purpose: a workflow may wire two ports of one actor
    # pair, and both graphs must keep the first insertion's position.
    return edges + rng.sample(edges, k=min(len(edges), 3))


def test_equals_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(20111)
    cyclic = 0
    for _ in range(1200):
        names = [f"a{i}" for i in rng.sample(range(40), rng.randint(1, 12))]
        edges = _random_edges(rng, names)
        ours, theirs = _ActorGraph(), nx.DiGraph()
        for name in names:
            ours.add_node(name)
            theirs.add_node(name)
        for source, sink in edges:
            ours.add_edge(source, sink)
            theirs.add_edge(source, sink)
        assert ours.nodes == list(theirs.nodes)
        assert ours.edges == list(theirs.edges)
        for name in names:
            assert ours.successors(name) == tuple(theirs.successors(name))
            assert ours.degree(name) == theirs.degree(name)
        try:
            expected = list(nx.topological_sort(theirs))
        except nx.NetworkXUnfeasible:
            expected = None
            cyclic += 1
        assert ours.topological_order() == expected
        on_cycle = {
            node
            for component in nx.strongly_connected_components(theirs)
            for node in component
            if len(component) > 1 or theirs.has_edge(node, node)
        }
        assert {n for n in names if ours.reaches_itself(n)} == on_cycle
        # (A subgraph view iterates its nodes in set order: rebuild.)
        remainder = nx.DiGraph()
        remainder.add_nodes_from(n for n in names if n not in on_cycle)
        remainder.add_edges_from(
            (u, v) for u, v in edges if remainder.has_node(u)
            and remainder.has_node(v)
        )
        assert ours.topological_order(without=frozenset(on_cycle)) == list(
            nx.topological_sort(remainder)
        )
    assert 100 < cyclic < 1100  # both branches are exercised

"""Workflow graph construction and validation."""

import pytest

from repro.core.actors import Actor, MapActor, SinkActor, SourceActor
from repro.core.exceptions import WorkflowError
from repro.core.windows import WindowSpec
from repro.core.workflow import Workflow


class Pass(Actor):
    def __init__(self, name, inputs=("in",), outputs=("out",)):
        super().__init__(name)
        for port in inputs:
            self.add_input(port)
        for port in outputs:
            self.add_output(port)

    def fire(self, ctx):
        pass


def small_workflow():
    wf = Workflow("w")
    src = SourceActor("src")
    src.add_output("out")
    mid = Pass("mid")
    sink = SinkActor("sink")
    wf.add_all([src, mid, sink])
    wf.connect(src, mid)
    wf.connect(mid, sink)
    return wf, src, mid, sink


class TestConstruction:
    def test_duplicate_actor_name_rejected(self):
        wf = Workflow("w")
        wf.add(Pass("a"))
        with pytest.raises(WorkflowError):
            wf.add(Pass("a"))

    def test_actor_cannot_join_two_workflows(self):
        actor = Pass("a")
        Workflow("w1").add(actor)
        with pytest.raises(WorkflowError):
            Workflow("w2").add(actor)

    def test_connect_resolves_single_ports(self):
        wf, src, mid, sink = small_workflow()
        assert len(wf.channels) == 2

    def test_connect_requires_port_name_when_ambiguous(self):
        wf = Workflow("w")
        two_out = Pass("two", outputs=("a", "b"))
        sink = SinkActor("sink")
        wf.add_all([two_out, sink])
        with pytest.raises(WorkflowError):
            wf.connect(two_out, sink)
        wf.connect(two_out, sink, source_port="a")

    def test_connect_foreign_actor_rejected(self):
        wf = Workflow("w")
        inside = Pass("inside")
        outside = Pass("outside")
        wf.add(inside)
        with pytest.raises(WorkflowError):
            wf.connect(inside, outside)


class TestIntrospection:
    def test_sources_and_internal_actors(self):
        wf, src, mid, sink = small_workflow()
        assert wf.sources == [src]
        assert set(a.name for a in wf.internal_actors) == {"mid", "sink"}

    def test_sinks_are_actors_without_outgoing(self):
        wf, src, mid, sink = small_workflow()
        assert sink in wf.sinks
        assert mid not in wf.sinks

    def test_graph_export(self):
        wf, *_ = small_workflow()
        graph = wf.graph()
        assert set(graph.edges) == {("src", "mid"), ("mid", "sink")}

    def test_dot_export(self):
        workflow = Workflow("dotted")
        source = SourceActor("src", arrivals=[])
        source.add_output("out")
        windowed = MapActor(
            "win", lambda v: v, window=WindowSpec.tokens(4, 1)
        )
        windowed.priority = 5
        sink = SinkActor("sink")
        stale = SinkActor("stale")
        workflow.add_all([source, windowed, sink, stale])
        workflow.connect(source, windowed)
        workflow.connect(windowed, sink)
        workflow.connect_expired(windowed, stale)
        dot = workflow.to_dot()
        assert dot.startswith('digraph "dotted"')
        assert '"src" [shape=invhouse' in dot
        assert '"sink" [shape=house' in dot
        assert "{4,1,tokens}" in dot
        assert 'style=dashed, label="expired"' in dot
        assert "p=5" in dot

    def test_downstream_and_upstream(self):
        wf, src, mid, sink = small_workflow()
        assert wf.downstream_of(src) == [mid]
        assert wf.upstream_of(sink) == [mid]


class TestValidation:
    def test_valid_workflow_passes(self):
        wf, *_ = small_workflow()
        wf.validate()

    def test_empty_workflow_rejected(self):
        with pytest.raises(WorkflowError):
            Workflow("w").validate()

    def test_unconnected_input_rejected(self):
        wf = Workflow("w")
        wf.add(Pass("a"))
        wf.add(Pass("b"))
        wf.connect(wf.actors["a"], wf.actors["b"])
        with pytest.raises(WorkflowError) as excinfo:
            wf.validate()
        assert "a.in" in str(excinfo.value)

    def test_isolated_actor_rejected(self):
        wf, *_ = small_workflow()
        wf.add(SinkActor("lonely"))
        with pytest.raises(WorkflowError) as excinfo:
            wf.validate()
        assert "lonely" in str(excinfo.value)

"""The workflow graph: actors wired by channels, plus validation helpers.

A :class:`Workflow` is purely structural — it knows nothing about execution.
Directors attach to a workflow, create receivers for its input ports and
drive the actors.  The graph helpers (``graph()``, ``downstream_of`` ...) are
what the Rate-Based scheduler uses to aggregate global selectivity/cost
along output paths.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .actors import Actor, SourceActor
from .exceptions import WorkflowError
from .ports import Channel, InputPort, OutputPort
from .waves import WaveGenerator


class _ActorGraph:
    """A small directed graph of actor names, in insertion order.

    Nodes and de-duplicated edges keep the order they were first added
    in, and every answer reproduces ``networkx.DiGraph``'s: ``edges``
    walks each node's successors in that order, ``degree`` counts a
    self-loop twice, and :meth:`topological_order` is Kahn's algorithm
    by generations, as ``networkx.topological_sort``.  The orders matter:
    the SDF schedule fires in topological order and the Rate-Based
    scheduler sums downstream metrics in successor order.
    """

    def __init__(self) -> None:
        self._succ: dict[str, dict[str, None]] = {}
        self._pred: dict[str, dict[str, None]] = {}

    def add_node(self, name: str) -> None:
        if name not in self._succ:
            self._succ[name] = {}
            self._pred[name] = {}

    def add_edge(self, source: str, sink: str) -> None:
        self.add_node(source)
        self.add_node(sink)
        self._succ[source][sink] = None
        self._pred[sink][source] = None

    @property
    def nodes(self) -> list[str]:
        return list(self._succ)

    @property
    def edges(self) -> list[tuple[str, str]]:
        return [(u, v) for u, succ in self._succ.items() for v in succ]

    def successors(self, name: str) -> tuple[str, ...]:
        return tuple(self._succ[name])

    def degree(self, name: str) -> int:
        return len(self._succ[name]) + len(self._pred[name])

    def reaches_itself(self, name: str) -> bool:
        """True when *name* lies on a cycle (a self-loop included)."""
        stack, seen = list(self._succ[name]), set()
        while stack:
            node = stack.pop()
            if node == name:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(self._succ[node])
        return False

    def topological_order(
        self, without: frozenset = frozenset()
    ) -> Optional[list[str]]:
        """Kahn's order of the nodes not in *without*; ``None`` on a cycle."""
        indegree = {
            v: sum(u not in without for u in pred)
            for v, pred in self._pred.items()
            if v not in without
        }
        generation = [v for v, degree in indegree.items() if degree == 0]
        order: list[str] = []
        while generation:
            order.extend(generation)
            following = []
            for node in generation:
                for child in self._succ[node]:
                    if child in without:
                        continue
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        following.append(child)
            generation = following
        return order if len(order) == len(indegree) else None


class Workflow:
    """A named, validated graph of actors and channels."""

    def __init__(self, name: str):
        self.name = name
        self.actors: dict[str, Actor] = {}
        self.channels: list[Channel] = []
        self.expired_routes: list[tuple[InputPort, InputPort]] = []
        self.wave_generator = WaveGenerator()
        # Structure-versioned caches: the graph view and the topology are
        # rebuilt only when an actor or channel is added, not per query.
        # The RB scheduler re-derives rate priorities every period — with
        # a static structure that must not pay a graph rebuild each time.
        self._structure_version = 0
        self._graph_cache: Optional[_ActorGraph] = None
        self._graph_version = -1
        self._topology_cache = None
        self._topology_version = -1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, actor: Actor) -> Actor:
        """Register *actor*; returns it so construction chains read well."""
        if actor.name in self.actors:
            raise WorkflowError(
                f"workflow {self.name!r} already has an actor named "
                f"{actor.name!r}"
            )
        if actor.workflow is not None and actor.workflow is not self:
            raise WorkflowError(
                f"actor {actor.name!r} already belongs to workflow "
                f"{actor.workflow.name!r}"
            )
        actor.workflow = self
        self.actors[actor.name] = actor
        self._structure_version += 1
        return actor

    def add_all(self, actors: Iterable[Actor]) -> None:
        for actor in actors:
            self.add(actor)

    def connect(
        self,
        source: Actor | OutputPort,
        sink: Actor | InputPort,
        source_port: Optional[str] = None,
        sink_port: Optional[str] = None,
    ) -> Channel:
        """Wire an output port to an input port.

        Accepts either explicit ports or actors; when an actor is given with
        no port name, it must have exactly one port of the right direction.
        """
        out_port = self._resolve_output(source, source_port)
        in_port = self._resolve_input(sink, sink_port)
        for actor in (out_port.actor, in_port.actor):
            if actor.workflow is not self:
                raise WorkflowError(
                    f"actor {actor.name!r} is not part of workflow "
                    f"{self.name!r}; add it first"
                )
        channel = Channel(out_port, in_port)
        self.channels.append(channel)
        self._structure_version += 1
        return channel

    @staticmethod
    def _resolve_output(source, port_name: Optional[str]) -> OutputPort:
        if isinstance(source, OutputPort):
            return source
        if isinstance(source, Actor):
            if port_name is not None:
                return source.output(port_name)
            if len(source.output_ports) == 1:
                return next(iter(source.output_ports.values()))
            raise WorkflowError(
                f"{source.name} has {len(source.output_ports)} output "
                "ports; name one explicitly"
            )
        raise WorkflowError(f"cannot connect from {source!r}")

    def connect_expired(
        self,
        windowed: Actor | InputPort,
        handler: Actor | InputPort,
        windowed_port: Optional[str] = None,
        handler_port: Optional[str] = None,
    ) -> None:
        """Route events expiring from a windowed input to a handler actor.

        The paper's expired-items queue: events that slide out of a window
        are optionally processed by another workflow activity.  The handler
        port receives them as ordinary events (through its own receiver),
        so any downstream semantics — including further windows — apply.
        """
        source_port = self._resolve_input(windowed, windowed_port)
        target_port = self._resolve_input(handler, handler_port)
        if source_port.window is None:
            raise WorkflowError(
                f"{source_port.full_name} has no window; nothing expires"
            )
        if target_port is source_port:
            raise WorkflowError("cannot route expired events to themselves")
        source_port.expired_to = target_port
        target_port.boundary = True  # fed by routing, not by a channel
        self.expired_routes.append((source_port, target_port))

    @staticmethod
    def _resolve_input(sink, port_name: Optional[str]) -> InputPort:
        if isinstance(sink, InputPort):
            return sink
        if isinstance(sink, Actor):
            if port_name is not None:
                return sink.input(port_name)
            if len(sink.input_ports) == 1:
                return next(iter(sink.input_ports.values()))
            raise WorkflowError(
                f"{sink.name} has {len(sink.input_ports)} input ports; "
                "name one explicitly"
            )
        raise WorkflowError(f"cannot connect to {sink!r}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sources(self) -> list[SourceActor]:
        return [a for a in self.actors.values() if a.is_source]

    @property
    def internal_actors(self) -> list[Actor]:
        return [a for a in self.actors.values() if not a.is_source]

    @property
    def sinks(self) -> list[Actor]:
        """Actors with no outgoing channels (workflow outputs)."""
        return [
            actor
            for actor in self.actors.values()
            if not any(port.outgoing for port in actor.output_ports.values())
        ]

    def graph(self) -> _ActorGraph:
        """The actor-level connection graph (one node per actor).

        Cached against the structure version: repeated queries on a
        static workflow (validation, SDF schedule compilation, the RB
        scheduler's per-period rate aggregation) share one build.
        Callers must treat the returned graph as read-only.
        """
        if (
            self._graph_cache is not None
            and self._graph_version == self._structure_version
        ):
            return self._graph_cache
        g = _ActorGraph()
        for actor in self.actors.values():
            g.add_node(actor.name)
        for channel in self.channels:
            g.add_edge(channel.source.actor.name, channel.sink.actor.name)
        self._graph_cache = g
        self._graph_version = self._structure_version
        return g

    def topology(
        self,
    ) -> tuple[list[str], dict[str, tuple[str, ...]], frozenset]:
        """``(order, successors, cyclic)`` — cached like :meth:`graph`.

        ``cyclic`` holds the actors on a cycle (those that can reach
        themselves); ``order`` is the topological order of every other
        actor.  The successor map covers every actor.  This is the
        static skeleton the Rate-Based scheduler walks once per period;
        deriving it per call made rate re-evaluation O(A + E) in
        graph-build work alone.
        """
        if (
            self._topology_cache is not None
            and self._topology_version == self._structure_version
        ):
            return self._topology_cache
        graph = self.graph()
        successors = {
            name: graph.successors(name) for name in graph.nodes
        }
        cyclic = frozenset(
            name for name in graph.nodes if graph.reaches_itself(name)
        )
        order = graph.topological_order(without=cyclic)
        self._topology_cache = (order, successors, cyclic)
        self._topology_version = self._structure_version
        return self._topology_cache

    def downstream_of(self, actor: Actor) -> list[Actor]:
        """Actors directly connected downstream of *actor*."""
        names = {
            channel.sink.actor.name
            for port in actor.output_ports.values()
            for channel in port.outgoing
        }
        return [self.actors[name] for name in sorted(names)]

    def upstream_of(self, actor: Actor) -> list[Actor]:
        names = {
            channel.source.actor.name
            for port in actor.input_ports.values()
            for channel in port.incoming
        }
        return [self.actors[name] for name in sorted(names)]

    def to_dot(self) -> str:
        """Graphviz DOT text for the workflow (sources/sinks shaped).

        Windowed inputs annotate their edge with the window clause, and
        expired-item routes render as dashed edges — enough to eyeball a
        workflow the way the paper's Figures 10-15 draw theirs.
        """
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for actor in self.actors.values():
            if actor.is_source:
                shape = "invhouse"
            elif actor in self.sinks:
                shape = "house"
            else:
                shape = "box"
            label = actor.name
            if actor.priority != 20:
                label += f"\\np={actor.priority}"
            lines.append(
                f'  "{actor.name}" [shape={shape}, label="{label}"];'
            )
        for channel in self.channels:
            sink_port = channel.sink
            attributes = []
            if sink_port.window is not None:
                spec = sink_port.window
                attributes.append(
                    f'label="{{{spec.size},{spec.step},'
                    f'{spec.measure.value}}}"'
                )
            suffix = f" [{', '.join(attributes)}]" if attributes else ""
            lines.append(
                f'  "{channel.source.actor.name}" -> '
                f'"{sink_port.actor.name}"{suffix};'
            )
        for source_port, target_port in self.expired_routes:
            lines.append(
                f'  "{source_port.actor.name}" -> '
                f'"{target_port.actor.name}" '
                '[style=dashed, label="expired"];'
            )
        lines.append("}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`WorkflowError` when the graph is malformed."""
        if not self.actors:
            raise WorkflowError(f"workflow {self.name!r} has no actors")
        problems: list[str] = []
        for actor in self.actors.values():
            for port in actor.input_ports.values():
                if not port.incoming and not actor.is_source and not port.boundary:
                    problems.append(
                        f"input port {port.full_name} is not connected"
                    )
        graph = self.graph()
        routed = {
            port.actor.name
            for pair in self.expired_routes
            for port in pair
        }
        isolated = [
            name
            for name in graph.nodes
            if graph.degree(name) == 0
            and name not in routed
            and len(self.actors) > 1
        ]
        for name in isolated:
            problems.append(f"actor {name} is isolated")
        if problems:
            raise WorkflowError(
                f"workflow {self.name!r} is malformed: " + "; ".join(problems)
            )

    def __repr__(self) -> str:
        return (
            f"Workflow({self.name!r}, actors={len(self.actors)}, "
            f"channels={len(self.channels)})"
        )

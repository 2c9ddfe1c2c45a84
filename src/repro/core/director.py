"""The director abstraction: execution + communication model of a workflow.

As in Kepler/PtolemyII, the *director* — not the actor — decides how actors
communicate (it supplies the receivers) and when they execute.  Concrete
models of computation live in :mod:`repro.directors`; the STAFiLOS scheduled
director lives in :mod:`repro.stafilos`.

Directors share a small common surface so composites can nest any director
under any other:

* ``attach(workflow)`` — bind to a workflow and create receivers;
* ``initialize_all()`` / ``wrapup_all()`` — actor lifecycle bracketing;
* ``inject(actor, port, item, now)`` — push a boundary item into the graph;
* ``run_to_quiescence(now)`` — fire enabled actors until nothing can fire
  (what a composite actor invokes when the outer director fires it).

The continuous-workflow directors (SCWF, simulated and live PNCWF) share
more: fault supervision (:meth:`Director.supervise`, ``dead_letters``,
``actor_errors``), the formation-timeout watch and the idle bookkeeping
a :class:`~repro.simulation.runtime.SimulationRuntime` reads — each
written once, here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional

from ..observability import tracer as _obs
from .actors import Actor
from .context import FiringContext, RouteTable
from .events import CWEvent
from .exceptions import DirectorError, ResilienceError
from .ports import InputPort, OutputPort
from .receivers import FIFOReceiver, Receiver
from .statistics import StatisticsRegistry
from .tokens import as_token
from .windows import Measure, Window
from .workflow import Workflow


class DeliveryRoute:
    """One output port's hop to its consumers, resolved once.

    Holds what no emission can change — the producer's statistics record
    and the port's *live* channel list (a channel connected mid-run is
    followed from the next emission on) — so an event reaches every
    connected receiver without re-deriving who consumes it.  Derived
    state: rebuilt after ``attach``/``initialize_all``, never dumped.
    """

    __slots__ = ("port", "_outgoing", "_statistics", "_record_output")

    def __init__(self, port: OutputPort, statistics: StatisticsRegistry):
        self.port = port
        self._outgoing = port.outgoing
        self._statistics = statistics
        self._record_output = statistics.register(port.actor).record_output

    def deliver(self, event: CWEvent) -> None:
        timestamp = event.timestamp
        if _obs.ENABLED:
            _obs._TRACER.instant(
                "actor.emit",
                timestamp,
                self.port.actor.name,
                port=self.port.name,
                wave=str(event.wave),
            )
        for channel in self._outgoing:
            channel.sink.receiver.put(event)
        statistics = self._statistics
        if timestamp > statistics._last_now_us:
            statistics._last_now_us = timestamp
        self._record_output(1, timestamp)

    def deliver_train(self, events: "list[CWEvent]") -> None:
        """``deliver`` per event, amortized: one receiver call per channel
        per train.  A fan-out port stages the train in every consumer
        and then admits the consumers in the order per-event delivery
        would first have reached them, falling back to per-event
        delivery where the interleaving itself is observable — the rule
        and the fallback list are ``OutputPort.broadcast_batch``'s.
        ``record_output`` is count-based; calls are coalesced per run of
        equal timestamps so the per-timestamp rate samples stay intact.
        """
        if _obs.ENABLED:
            _obs._TRACER.instant(
                "actor.emit_train",
                events[0].timestamp,
                self.port.actor.name,
                port=self.port.name,
                count=len(events),
            )
        self.port.broadcast_batch(events)
        record_output = self._record_output
        statistics = self._statistics
        newest = statistics._last_now_us
        i, n = 0, len(events)
        while i < n:
            timestamp = events[i].timestamp
            j = i + 1
            while j < n and events[j].timestamp == timestamp:
                j += 1
            if timestamp > newest:
                newest = timestamp
            record_output(j - i, timestamp)
            i = j
        statistics._last_now_us = newest


class Director(ABC):
    """Base class for all models of computation."""

    #: Human-readable name used by the Table 1 taxonomy and reprs.
    model_name = "abstract"

    def __init__(self):
        self.workflow: Optional[Workflow] = None
        self.statistics = StatisticsRegistry()
        self._attached = False
        self._initialized = False
        #: ``{actor: RouteTable}`` — every output port's delivery route.
        #: Derived from the topology; dropped by ``attach`` and
        #: ``initialize_all``, rebuilt on the next emission.
        self._routes: dict[Actor, RouteTable] = {}
        #: Receivers whose window spec declares a formation timeout, in
        #: registration order (a director's ``create_receiver`` fills it).
        self._deadline_watch: list = []
        #: Recovery configuration and per-actor failure state + the
        #: dead-letter queue, installed by :meth:`supervise`; ``None``
        #: under the classic models of computation, which fail-stop.
        self.fault_policy = None
        self.supervisor = None
        #: Optional closed-loop overload controller (``repro.overload``;
        #: only the SCWF director's ``apply_qos`` installs one).
        self.overload = None

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def attach(self, workflow: Workflow) -> None:
        """Bind to *workflow*, validate it, and install receivers."""
        if self._attached and self.workflow is not workflow:
            raise DirectorError("director is already attached to a workflow")
        workflow.validate()
        self.workflow = workflow
        for actor in workflow.actors.values():
            for port in actor.input_ports.values():
                port.attach_receiver(self.create_receiver(port))
        self._routes.clear()
        self._attached = True

    def create_receiver(self, port: InputPort) -> Receiver:
        """Receiver factory; the default model ignores window declarations."""
        return FIFOReceiver(port)

    def _watch_deadline(self, port: InputPort, receiver: Receiver) -> None:
        """Register *receiver* for the formation-timeout scan when its
        port declares a timed window with a timeout."""
        spec = port.window
        if (
            spec is not None
            and spec.measure is Measure.TIME
            and spec.timeout is not None
        ):
            self._deadline_watch.append(receiver)

    # ------------------------------------------------------------------
    # Fault supervision
    # ------------------------------------------------------------------
    def supervise(self, error_policy) -> None:
        """Install the recovery configuration (a
        :class:`~repro.resilience.FaultPolicy`): ``propagate=True``
        re-raises actor exceptions (fail-stop); otherwise a failing
        firing is a fault barrier — the triggering item is consumed,
        partial emissions are discarded, the error counted and the item
        retried or dead-lettered by the supervisor.
        """
        from ..resilience import FaultPolicy, FaultSupervisor

        try:
            self.fault_policy = FaultPolicy.coerce(error_policy)
        except ResilienceError as error:
            raise DirectorError(str(error)) from None
        self.supervisor = FaultSupervisor(self.fault_policy, self.statistics)

    @property
    def dead_letters(self):
        """The supervisor's dead-letter queue (convenience alias)."""
        return self.supervisor.dead_letters

    @property
    def actor_errors(self) -> dict[str, int]:
        """``{actor name: items dead-lettered}`` for actors that lost any
        (a read-only view of the supervisor's health records)."""
        return self.supervisor.dead_letter_counts()

    def _require_attached(self) -> Workflow:
        if self.workflow is None:
            raise DirectorError("director is not attached to a workflow")
        return self.workflow

    # ------------------------------------------------------------------
    # Lifecycle bracketing
    # ------------------------------------------------------------------
    def initialize_all(self) -> None:
        workflow = self._require_attached()
        self._routes.clear()
        for actor in workflow.actors.values():
            ctx = self.make_context(actor, now=0)
            actor.initialize(ctx)
            ctx.close()
            self.statistics.register(actor)
        self._initialized = True
        if _obs.ENABLED:
            _obs._TRACER.instant(
                "workflow.initialize",
                self.current_time(),
                workflow=workflow.name,
                actors=len(workflow.actors),
                director=self.model_name,
            )

    def wrapup_all(self) -> None:
        workflow = self._require_attached()
        for actor in workflow.actors.values():
            ctx = self.make_context(actor, now=self.current_time())
            actor.wrapup(ctx)
            ctx.close()
        self._initialized = False
        if _obs.ENABLED:
            _obs._TRACER.instant(
                "workflow.wrapup",
                self.current_time(),
                workflow=workflow.name,
            )

    # ------------------------------------------------------------------
    # Context plumbing
    # ------------------------------------------------------------------
    def make_context(self, actor: Actor, now: int) -> FiringContext:
        workflow = self._require_attached()
        return FiringContext(
            actor, now, self._routes_for(actor), workflow.wave_generator
        )

    def _routes_for(self, actor: Actor) -> RouteTable:
        routes = self._routes.get(actor)
        if routes is None:
            routes = self._routes[actor] = RouteTable(actor, self._route)
        return routes

    def _route(self, port: OutputPort) -> DeliveryRoute:
        """Build *port*'s delivery route: where every context of the
        port's actor hands its emissions (the override point for a
        non-holding director whose deliveries cost something).  A held
        train bypasses ``deliver``: ``FiringContext.deliver_held`` hands
        its events to ``route.port.stage_held``."""
        return DeliveryRoute(port, self.statistics)

    @abstractmethod
    def current_time(self) -> int:
        """Engine time in microseconds."""

    # ------------------------------------------------------------------
    # Window timeout events
    # ------------------------------------------------------------------
    def _window_deadlines(self) -> list:
        """``(receiver, engine-time deadline)`` per watched receiver that
        holds a pending window.

        A timeout fires ``window_formation_timeout`` after the event-time
        right boundary of the receiver's earliest pending window, which
        the receiver answers with a peek at its operator's pane-boundary
        heap — one O(1) peek per watched receiver, whatever the number
        of group keys.
        """
        return [
            (receiver, boundary + receiver.spec.timeout)
            for receiver in self._deadline_watch
            if (boundary := receiver.next_deadline()) is not None
        ]

    def next_window_deadline(self) -> Optional[int]:
        """Earliest engine time a timed-window timeout must fire."""
        return min(
            (deadline for _, deadline in self._window_deadlines()),
            default=None,
        )

    def fire_window_timeouts(self, now: int) -> int:
        """Force-produce every timed window whose timeout passed by *now*.

        The due set is fixed before any receiver is forced — forcing one
        may route expired events into another, which must not make that
        one fire in the same call — and fires in registration order.
        """
        due = [
            receiver
            for receiver, deadline in self._window_deadlines()
            if deadline <= now
        ]
        produced = 0
        for receiver in due:
            produced += receiver.force_timeout(now - receiver.spec.timeout)
        if produced and _obs.ENABLED:
            _obs._TRACER.instant("window.timeout_fired", now, produced=produced)
        return produced

    # ------------------------------------------------------------------
    # Composite-boundary protocol
    # ------------------------------------------------------------------
    def inject(
        self, actor: Actor, port_name: str, item: Any, now: int
    ) -> None:
        """Deposit a boundary item into *actor*'s input receiver.

        Windows crossing a composite boundary are flattened to a single
        event whose payload is the window's value list (documented composite
        semantics: the inner graph sees one token per outer window).
        """
        port = actor.input(port_name)
        if isinstance(item, Window):
            newest = max(item.events)
            event = CWEvent(
                as_token(item.values), item.timestamp, newest.wave
            )
        elif isinstance(item, CWEvent):
            event = item
        else:
            event = CWEvent(as_token(item), now, self._require_attached()
                            .wave_generator.next_root())
        port.put(event)

    def run_to_quiescence(self, now: int) -> int:
        """Fire enabled actors until none can fire; returns firing count.

        The default serves the iterative directors (a ``clock`` plus
        ``run_iteration() -> (internal firings, source emissions)``):
        jump to *now*, then iterate until an iteration makes no progress.
        """
        self.clock.jump_to(now)
        total = 0
        while True:
            internal, emitted = self.run_iteration()
            total += internal
            if internal == 0 and emitted == 0:
                return total

    # ------------------------------------------------------------------
    # Idle bookkeeping for the runtime
    # ------------------------------------------------------------------
    def next_arrival_time(self) -> Optional[int]:
        """Earliest undelivered external arrival across all sources.

        Under an overload controller, the earliest *admissible* instant
        per source instead: admission tokens can defer an arrival past
        its schedule time, and jumping to the raw arrival would leave
        the source gated and crawl the clock 1 µs at a time.
        """
        workflow = self._require_attached()
        overload = self.overload
        times = [
            arrival
            if overload is None
            else overload.earliest_admission(source, arrival)
            for source in workflow.sources
            if (arrival := source.next_arrival_time()) is not None
        ]
        return min(times, default=None)

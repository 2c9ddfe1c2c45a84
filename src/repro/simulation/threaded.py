"""Virtual-time model of the thread-based PNCWF director.

The live PNCWF engine (:mod:`repro.directors.pncwf`) delegates all resource
allocation to the operating system: every actor is a thread, the OS
round-robins between runnable threads, and every queue operation pays
lock/notify synchronization.  This module reproduces that execution model
on the virtual clock so it can be compared head-to-head with the STAFiLOS
schedulers in the paper's Figure 8:

* each actor (and each source) is a *simulated thread*;
* a thread is runnable when it has a formed window to consume (sources:
  when an external arrival is due);
* the simulated OS serves runnable threads round-robin with a fixed time
  slice, charging ``cost_model.context_switch_us`` on every switch;
* every event hop through a receiver charges
  ``cost_model.sync_per_event_us`` to the running thread (the lock/notify
  cost of the blocking queues), on the director's own delivery route.

These two overheads are the calibrated substitution for "Java threads on an
8-core Xeon" documented in DESIGN.md: they reduce effective capacity by
roughly a third relative to the single-threaded scheduled director, the
ratio the paper measured (thrash at ~120 vs ~160 reports/s).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..core.actors import Actor, SourceActor
from ..core.director import DeliveryRoute, Director
from ..core.events import CWEvent
from ..core.ports import InputPort, OutputPort
from ..core.receivers import Receiver, WindowedReceiver
from ..core.windows import Window, WindowSpec
from ..resilience import FailureAction, FaultPolicy
from .clock import VirtualClock
from .cost_model import CostModel


class _SimReadyReceiver(WindowedReceiver):
    """Windowed receiver that wakes the owning simulated thread."""

    def __init__(self, spec: Optional[WindowSpec], director, port=None):
        super().__init__(spec, port)
        self._director = director

    def _deliver(self, window: Window) -> None:
        item: Window | CWEvent = window
        if self._passthrough:
            item = window.events[0]
        assert self.port is not None
        self._director.schedule_ready(self.port.actor, self.port.name, item)


class _SyncChargedRoute(DeliveryRoute):
    """A delivery that pays the blocking queues' synchronization.

    Every emitted event costs a lock + notify per destination receiver
    (at least one), charged to the thread currently holding the
    (simulated) CPU.  The director's contexts never batch, so every
    emission arrives here through :meth:`deliver`.
    """

    __slots__ = ("_director",)

    def __init__(self, port: OutputPort, director: "ThreadedCWFDirector"):
        super().__init__(port, director.statistics)
        self._director = director

    def deliver(self, event: CWEvent) -> None:
        director = self._director
        director._sync_charge += director.cost_model.sync_per_event_us * max(
            len(self._outgoing), 1
        )
        super().deliver(event)


class ThreadedCWFDirector(Director):
    """Simulated OS-thread execution of a continuous workflow."""

    model_name = "PNCWF-sim"

    def __init__(
        self,
        clock: VirtualClock,
        cost_model: CostModel,
        os_slice_us: int = 4_000,
        error_policy: FaultPolicy = FaultPolicy(propagate=True),
    ):
        super().__init__()
        # Same recovery semantics as the SCWF director; defaults to
        # fail-stop so simulation bugs surface loudly.
        self.supervise(error_policy)
        self.clock = clock
        self.cost_model = cost_model
        self.os_slice_us = os_slice_us
        #: name -> deque of (port_name, item) ready for consumption.
        self._ready: dict[str, deque] = {}
        self._rotation: deque[str] = deque()
        self._sync_charge = 0
        self.context_switches = 0
        self.total_internal_firings = 0

    # ------------------------------------------------------------------
    def create_receiver(self, port: InputPort) -> Receiver:
        receiver = _SimReadyReceiver(port.window, self, port)
        self._watch_deadline(port, receiver)
        return receiver

    def initialize_all(self) -> None:
        super().initialize_all()
        workflow = self._require_attached()
        self._rotation = deque(workflow.actors.keys())
        for actor in workflow.actors.values():
            self._ready.setdefault(actor.name, deque())

    def current_time(self) -> int:
        return self.clock.now_us

    # ------------------------------------------------------------------
    def schedule_ready(self, actor: Actor, port_name: str, item) -> None:
        self._ready[actor.name].append((port_name, item))
        self.statistics.record_input(actor, 1, self.clock.now_us)

    def _route(self, port: OutputPort) -> "_SyncChargedRoute":
        return _SyncChargedRoute(port, self)

    # ------------------------------------------------------------------
    def _runnable(self, actor: Actor, now: int) -> bool:
        if actor.is_source:
            assert isinstance(actor, SourceActor)
            return actor.pending_arrivals(now) > 0
        return bool(self._ready[actor.name])

    def run_iteration(self) -> tuple[int, int]:
        """One simulated OS scheduling round over the runnable threads.

        Returns ``(internal_firings, source_emissions)`` like the SCWF
        director so the same :class:`SimulationRuntime` drives both.
        """
        workflow = self._require_attached()
        internal = 0
        emitted = 0
        served_any = True
        # One pass over the rotation; each runnable thread gets one slice.
        for _ in range(len(self._rotation)):
            name = self._rotation[0]
            self._rotation.rotate(-1)
            actor = workflow.actors[name]
            if not self._runnable(actor, self.clock.now_us):
                continue
            self.context_switches += 1
            self.clock.advance(self.cost_model.context_switch_us)
            fired, pumped = self._run_slice(actor)
            internal += fired
            emitted += pumped
        return internal, emitted

    def _run_slice(self, actor: Actor) -> tuple[int, int]:
        """The thread holds the CPU until its slice ends or it blocks."""
        slice_left = self.os_slice_us
        internal = 0
        emitted = 0
        while slice_left > 0 and self._runnable(actor, self.clock.now_us):
            if actor.is_source:
                cost, count = self._fire_source(actor)
                emitted += count
            else:
                cost, fired = self._fire_internal(actor)
                internal += 1 if fired else 0
            slice_left -= cost
        self.total_internal_firings += internal
        return internal, emitted

    def _fire_source(self, source: SourceActor) -> tuple[int, int]:
        ctx = self.make_context(source, self.clock.now_us)
        self._sync_charge = 0
        saved_limit = source.batch_limit
        source.batch_limit = 1  # a blocking thread emits one read at a time
        try:
            count = source.pump(ctx)
        finally:
            source.batch_limit = saved_limit
        ctx.close()
        cost = self.cost_model.source_cost(source, count) + self._sync_charge
        self.clock.advance(cost)
        self.statistics.record_invocation(source, cost)
        return cost, count

    def _fire_internal(self, actor: Actor) -> tuple[int, bool]:
        port_name, item = self._ready[actor.name].popleft()
        supervisor = self.supervisor
        if supervisor.is_quarantined(actor.name):
            # Open circuit: the item bypasses execution entirely.
            supervisor.drop_quarantined(
                actor, port_name, item, self.clock.now_us
            )
            cost = self.cost_model.sync_per_event_us  # the wasted get()
            self.clock.advance(cost)
            return cost, False
        total_cost = 0
        fired = False
        attempt = 0
        while True:
            ctx = self.make_context(actor, self.clock.now_us)
            ctx.stage(port_name, item)
            self._sync_charge = self.cost_model.sync_per_event_us  # the get()
            try:
                if actor.prefire(ctx):
                    actor.fire(ctx)
                    actor.postfire(ctx)
                    fired = True
                ctx.close()
                cost = (
                    self.cost_model.invocation_cost(actor, ctx)
                    + self._sync_charge
                )
                self.clock.advance(cost)
                total_cost += cost
                self.statistics.record_invocation(actor, cost)
                supervisor.on_success(actor)
                break
            except Exception as error:
                # Fault barrier: discard partial emissions, charge the
                # cheaper failure cost, let the supervisor decide.
                ctx.abort()
                ctx.close()
                attempt += 1
                decision = supervisor.on_failure(
                    actor, port_name, item, error, attempt, self.clock.now_us
                )
                if decision.action is FailureAction.PROPAGATE:
                    raise
                cost = (
                    self.cost_model.failure_cost(actor, ctx)
                    + self._sync_charge
                )
                self.clock.advance(cost)
                total_cost += cost
                if decision.action is FailureAction.RETRY:
                    # The thread sleeps through the backoff in engine time.
                    self.clock.advance(decision.backoff_us)
                    total_cost += decision.backoff_us
                    continue
                # Dead-lettered by the supervisor.
                fired = False
                break
        return total_cost, fired

    def backlog(self) -> int:
        return sum(len(queue) for queue in self._ready.values())

"""Actors: the independent components a workflow is composed of.

Actors follow the Kepler/PtolemyII lifecycle that every director drives:

``initialize`` → ( ``prefire`` → ``fire`` → ``postfire`` )* → ``wrapup``

* ``prefire(ctx)`` returns ``True`` when the actor is willing to fire;
* ``fire(ctx)`` consumes staged inputs via ``ctx.read`` and produces outputs
  via ``ctx.send``;
* ``postfire(ctx)`` returns ``False`` to ask the director to stop scheduling
  this actor (streams normally never do).

:class:`SourceActor` models push sources: the director asks it to ``pump``
external arrivals into the workflow instead of staging inputs for it.
:class:`CompositeActor` wraps a sub-workflow governed by its own (inner)
director, mirroring Kepler's hierarchical workflows: the Linear Road
top-level workflow is continuous while its sub-tasks run under SDF or DDF.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from ..observability import tracer as _obs
from .context import FiringContext
from .exceptions import ActorError, CheckpointError, PortError
from .ports import InputPort, OutputPort
from .windows import WindowSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .workflow import Workflow

#: Attributes of every actor that are *structural* — they describe the
#: workflow graph and are rebuilt by the workflow builder on recovery, so
#: the generic checkpoint dump never captures them.
_STRUCTURAL_ATTRS = frozenset(
    {
        "name",
        "workflow",
        "input_ports",
        "output_ports",
        "priority",
        "nominal_cost_us",
    }
)


class Actor:
    """Base class for all workflow activities."""

    #: Directors treat sources specially (e.g. QBS regulates their firing).
    is_source = False

    #: Additional attribute names subclasses exclude from the generic
    #: checkpoint dump (on top of the structural attributes and any
    #: callable-valued attributes, which are always skipped).
    checkpoint_exclude: frozenset = frozenset()

    def __init__(self, name: str):
        if not name:
            raise ActorError("actors need a non-empty name")
        self.name = name
        self.workflow: Optional["Workflow"] = None
        self.input_ports: dict[str, InputPort] = {}
        self.output_ports: dict[str, OutputPort] = {}
        #: Designer-assigned priority (used by QBS; smaller = more urgent).
        self.priority: int = 20
        #: Nominal cost per invocation in microseconds for the simulation
        #: cost model; ``None`` means "use the model's default".
        self.nominal_cost_us: Optional[int] = None

    # ------------------------------------------------------------------
    # Port declaration
    # ------------------------------------------------------------------
    def add_input(
        self, name: str, window: Optional[WindowSpec] = None
    ) -> InputPort:
        if name in self.input_ports or name in self.output_ports:
            raise PortError(f"{self.name} already has a port named {name!r}")
        port = InputPort(self, name, window)
        self.input_ports[name] = port
        return port

    def add_output(self, name: str) -> OutputPort:
        if name in self.input_ports or name in self.output_ports:
            raise PortError(f"{self.name} already has a port named {name!r}")
        port = OutputPort(self, name)
        self.output_ports[name] = port
        return port

    def input(self, name: str) -> InputPort:
        try:
            return self.input_ports[name]
        except KeyError:
            raise PortError(f"{self.name} has no input port {name!r}") from None

    def output(self, name: str) -> OutputPort:
        try:
            return self.output_ports[name]
        except KeyError:
            raise PortError(f"{self.name} has no output port {name!r}") from None

    # ------------------------------------------------------------------
    # Lifecycle (overridden by concrete actors)
    # ------------------------------------------------------------------
    def initialize(self, ctx: FiringContext) -> None:
        """One-time setup before the workflow starts iterating."""

    def prefire(self, ctx: FiringContext) -> bool:
        """Return True when the actor is ready to fire."""
        return True

    def fire(self, ctx: FiringContext) -> None:
        """Consume staged inputs, produce outputs."""
        raise NotImplementedError

    def postfire(self, ctx: FiringContext) -> bool:
        """Return False to stop being scheduled (continuous actors: True)."""
        return True

    def wrapup(self, ctx: FiringContext) -> None:
        """Teardown after the director stops the workflow."""

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Generic actor snapshot: every non-structural instance attribute.

        The dump splits attributes in two buckets:

        * ``plain`` — picklable values captured as-is (lists of recorded
          items, counters, caches...).  The dict references the live
          containers; the checkpoint orchestrator pickles it synchronously
          before the engine takes another step.
        * ``nested`` — attribute values that themselves implement the
          ``Checkpointable`` protocol (e.g. the shared Linear Road
          :class:`~repro.sqldb.Database`).  These are dumped through the
          protocol and restored **in place** on the rebuilt object, so
          references shared between actors stay shared after recovery.

        Structural attributes (ports, workflow link, priority) and
        callable-valued attributes (wrapped functions, callbacks) are
        skipped — they belong to the workflow builder, not the snapshot.
        Subclasses with unpicklable runtime state either extend
        :attr:`checkpoint_exclude` or override this method.
        """
        excluded = _STRUCTURAL_ATTRS | type(self).checkpoint_exclude
        plain: dict = {}
        nested: dict = {}
        for attr, value in self.__dict__.items():
            if attr in excluded or callable(value):
                continue
            if hasattr(value, "state_dump") and hasattr(value, "state_restore"):
                nested[attr] = value.state_dump()
            else:
                plain[attr] = value
        return {"plain": plain, "nested": nested}

    def state_restore(self, state: dict) -> None:
        """Apply a generic dump on the structurally rebuilt actor.

        ``plain`` attributes are assigned directly; ``nested`` dumps are
        applied in place through the target attribute's own
        ``state_restore`` so shared references survive recovery.
        """
        for attr, value in state["plain"].items():
            setattr(self, attr, value)
        for attr, sub_state in state["nested"].items():
            target = getattr(self, attr, None)
            if target is None or not hasattr(target, "state_restore"):
                raise CheckpointError(
                    f"actor {self.name!r}: cannot restore nested state for "
                    f"attribute {attr!r} — the rebuilt actor has no "
                    "Checkpointable object there (structure mismatch?)"
                )
            target.state_restore(sub_state)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


#: A source lets go of delivered arrivals once at least this many (and
#: half its list) are done with: a short schedule keeps them all, and a
#: long one is cut in few, large steps.
_LET_GO_MIN = 64


class SourceActor(Actor):
    """An actor that injects external events (push communication).

    Directors call :meth:`pump` instead of staging inputs; the source emits
    whatever external arrivals are due at engine time ``ctx.now`` via
    ``ctx.send``.  Sub-classes either override :meth:`pump` or provide an
    ``arrivals`` iterable of ``(timestamp_us, value)`` pairs.  This is the
    paper's push source (§2.2): arrivals pushed at it mid-run through
    :meth:`feed` are pumped into the workflow at the rate the director
    dictates, and :meth:`feed`'s strict-order check is its timekeeper (a
    stamp earlier than one already scheduled is refused).  An exhausted
    schedule is end of stream.

    With ``out_of_order=True`` the source models bounded-disorder
    delivery: arrivals are ``(delivery_us, value, event_ts_us)`` triples
    (2-tuples still work — delivery time doubles as event time), sorted
    by *delivery*.  Due deliveries land in a reorder heap and are
    released to the workflow **in event-time order** once they are
    ``disorder_us`` old (nothing earlier can still be in transit), so
    downstream sees the same monotone stream an in-order source would
    emit, just later.  :meth:`progress_watermark` exposes the matching
    bounded-disorder frontier bound (see ``repro.frontier``).
    """

    is_source = True
    #: The arrival schedule is structural (reproduced by the workload
    #: builder on recovery); only the replay *cursor* is checkpointed, so
    #: a resumed source re-emits nothing and drops nothing.  The cached
    #: sole-output-port name is derived from the (structural) port dict,
    #: and the reorder heap is rebuilt from the cursor + release count.
    #: ``_base`` says how much of the schedule has been let go of, which
    #: a rebuilt schedule starts over from: the cursor stays absolute.
    checkpoint_exclude = frozenset(
        {"_pending", "_sole_output_name", "_reorder", "_base"}
    )

    def __init__(
        self,
        name: str,
        arrivals: Optional[Iterable[tuple]] = None,
        batch_limit: Optional[int] = None,
        out_of_order: bool = False,
        disorder_us: int = 0,
    ):
        super().__init__(name)
        if disorder_us < 0:
            raise ActorError("disorder_us cannot be negative")
        self._pending: list[tuple] = (
            sorted(arrivals, key=lambda pair: pair[0]) if arrivals else []
        )
        #: Absolute schedule position of the next undelivered arrival.
        self._cursor = 0
        #: Absolute schedule position of ``_pending[0]``: delivered
        #: arrivals leave the front of the list (:meth:`_let_go`).
        self._base = 0
        self.batch_limit = batch_limit
        self._out_of_order = out_of_order
        self.disorder_us = disorder_us
        #: Reorder heap of ``(event_ts, pending_index, value)``: due
        #: deliveries awaiting release in event-time order.
        self._reorder: list[tuple[int, int, Any]] = []
        #: How many heap entries have been released (checkpoint cursor
        #: for the deterministic heap rebuild on restore).
        self._released_count = 0
        #: Lazily cached result of :meth:`_sole_output` — looked up once,
        #: not once per emitted arrival (ports are fixed after wiring).
        self._sole_output_name: Optional[str] = None

    def load(self, arrivals: Iterable[tuple]) -> None:
        """Replace the arrival schedule (before the workflow starts)."""
        self._pending = sorted(arrivals, key=lambda pair: pair[0])
        self._cursor = 0
        self._base = 0
        self._reorder = []
        self._released_count = 0

    def feed(self, arrivals: Iterable[tuple]) -> None:
        """Append arrivals to the schedule mid-run (streamed delivery).

        Unlike :meth:`load` this keeps the replay cursor, so a source
        can receive its schedule incrementally — the shard workers feed
        chunks routed over a pipe this way.

        In strict (in-order) mode, fed arrivals must not be earlier than
        anything already scheduled: the pending list must stay sorted by
        delivery time for the cursor to mean anything, so a violating
        batch raises :class:`~repro.core.exceptions.ActorError` instead
        of silently corrupting the cursor.  An ``out_of_order`` source
        tolerates it — the undelivered tail is re-sorted with the new
        batch and event-time ordering is restored by the reorder heap.
        """
        new = sorted(arrivals, key=lambda pair: pair[0])
        if not new:
            return
        pending = self._pending
        # The last scheduled arrival is never let go of (:meth:`_let_go`),
        # so the check below sees it even once it has been delivered.
        if pending and new[0][0] < pending[-1][0]:
            if not self._out_of_order:
                raise ActorError(
                    f"source {self.name}: fed arrival at t={new[0][0]} is "
                    f"earlier than the already-scheduled "
                    f"t={pending[-1][0]}; feed() only appends — "
                    "use an out_of_order source for disordered streams"
                )
            index = self._cursor - self._base
            tail = pending[index:]
            del pending[index:]
            pending.extend(sorted(tail + new, key=lambda pair: pair[0]))
            return
        pending.extend(new)

    def _let_go(self) -> None:
        """Drop delivered arrivals from the front of the schedule.

        Nothing reads a delivered arrival again, except a reorder heap's
        rebuild on restore, which reads the delivered arrivals not yet
        released: an out-of-order source keeps everything from the
        oldest index still in its heap.  The last scheduled arrival
        stays for :meth:`feed`'s order check.  Pumps call this once the
        arrivals done with (delivered; out of order, also released) are
        at least half the list, so on average each arrival is moved a
        constant number of times.  Out of order, the heap scan is no
        longer than that released part; an old entry still in the heap
        holds the cut back, and each pump rescans until it is released.
        Nor does an out-of-order source let go of more arrivals than it
        has released: :meth:`shed_due` and :meth:`skip_current` move the
        cursor past arrivals that never enter the heap, and a restore
        refuses a release count below ``_base``.
        """
        pending = self._pending
        keep = self._cursor
        if self._out_of_order:
            keep = min(keep, self._released_count)
            if self._reorder:
                keep = min(keep, min(entry[1] for entry in self._reorder))
        cut = min(keep - self._base, len(pending) - 1)
        if cut > 0:
            del pending[:cut]
            self._base += cut

    # ------------------------------------------------------------------
    def next_arrival_time(self) -> Optional[int]:
        """Engine time of the next emission this source could make."""
        index = self._cursor - self._base
        if not self._out_of_order:
            if index >= len(self._pending):
                return None
            return self._pending[index][0]
        times = []
        if index < len(self._pending):
            times.append(self._pending[index][0])
            if self._reorder:
                # A buffered event releases once it is disorder_us old.
                times.append(self._reorder[0][0] + self.disorder_us)
        elif self._reorder:
            # The delivery schedule is drained: the buffer flushes on
            # the next pump, whenever the clock reaches it.
            times.append(self._reorder[0][0])
        return min(times) if times else None

    def pending_arrivals(self, now: int) -> int:
        """How many arrivals are due (timestamp <= now) but undelivered.

        For an out-of-order source, everything buffered for reordering
        also counts as due — it has been delivered but not yet released.
        """
        count = len(self._reorder)
        pending = self._pending
        index = self._cursor - self._base
        while index < len(pending) and pending[index][0] <= now:
            count += 1
            index += 1
        return count

    def exhausted(self) -> bool:
        return (
            self._cursor - self._base >= len(self._pending)
            and not self._reorder
        )

    def shed_due(self, now: int, max_pending: int) -> int:
        """Drop the oldest due arrivals beyond *max_pending* (shedding).

        Under overload, arrivals the engine has not pulled yet pile up at
        the source; a load-shedding policy may discard the stalest ones —
        their response-time targets are already unmeetable.  Returns how
        many arrivals were dropped.
        """
        due = self.pending_arrivals(now)
        excess = due - max_pending
        if excess <= 0:
            return 0
        self._cursor += excess
        return excess

    def peek_arrival(self) -> Optional[tuple[int, Any]]:
        """The undelivered ``(timestamp, value)`` at the cursor, if any."""
        index = self._cursor - self._base
        if index >= len(self._pending):
            return None
        return self._pending[index]

    def skip_current(self) -> Optional[tuple[int, Any]]:
        """Discard and return the arrival at the cursor.

        Poison-pill recovery hook for supervising directors: when a pump
        keeps failing on the same arrival, the supervisor dead-letters it
        and skips past so the source does not loop on the poison forever.
        """
        arrival = self.peek_arrival()
        if arrival is not None:
            self._cursor += 1
        return arrival

    def pump(self, ctx: FiringContext) -> int:
        """Emit due arrivals (up to ``batch_limit``); returns how many."""
        if self._out_of_order:
            return self._pump_out_of_order(ctx)
        emitted = 0
        limit = self.batch_limit
        pending = self._pending
        base = self._base
        while self._cursor - base < len(pending):
            timestamp, value = pending[self._cursor - base]
            if timestamp > ctx.now:
                break
            self.emit_arrival(ctx, timestamp, value)
            self._cursor += 1
            emitted += 1
            if limit is not None and emitted >= limit:
                break
        if emitted:
            delivered = self._cursor - base
            if delivered >= _LET_GO_MIN and 2 * delivered >= len(pending):
                self._let_go()
            if _obs.ENABLED:
                _obs._TRACER.instant(
                    "source.pump", ctx.now, self.name, emitted=emitted
                )
        return emitted

    def _pump_out_of_order(self, ctx: FiringContext) -> int:
        """Bounded-disorder pump: buffer due deliveries, release in order.

        Deliveries whose transport time has come move into the reorder
        heap keyed by event timestamp; the heap releases an event once
        nothing older can still be in transit — its event time is at
        least ``disorder_us`` behind the clock, or the entire delivery
        schedule has drained (then one timestamp per pump).  Released
        events therefore reach the workflow in monotone event-time
        order.
        """
        pending = self._pending
        heap = self._reorder
        now = ctx.now
        base = self._base
        cursor = self._cursor
        deposited = False
        while cursor - base < len(pending):
            entry = pending[cursor - base]
            if entry[0] > now:
                break
            event_ts = entry[2] if len(entry) > 2 else entry[0]
            heapq.heappush(heap, (event_ts, cursor, entry[1]))
            cursor += 1
            deposited = True
        self._cursor = cursor
        # Release one distinct event timestamp per pump, and never in
        # the same pump that deposited a delivery.  Idle consults
        # (frontier closures) then interleave between releases at the
        # same event-time positions as they do between in-order
        # deliveries: once deposits are in, the progress watermark just
        # before releasing a ripe timestamp T is exactly T (any
        # undelivered transport is newer than T + disorder).  Releasing
        # in the deposit pump would process the event before any idle
        # consult sees the advanced watermark; a bulk flush of every
        # ripened event would likewise fire a burst with no closure
        # opportunity in between.  Both desynchronize the run from the
        # in-order oracle.
        if deposited or not heap:
            release_limit = -1
        elif (
            cursor - base >= len(pending)
            or heap[0][0] <= now - self.disorder_us
        ):
            # Ripe (nothing older can still be in transit) or the
            # delivery schedule has drained: flush this timestamp only.
            release_limit = heap[0][0]
        else:
            release_limit = -1
        emitted = 0
        limit = self.batch_limit
        while heap and heap[0][0] <= release_limit:
            event_ts, _, value = heapq.heappop(heap)
            self.emit_arrival(ctx, event_ts, value)
            self._released_count += 1
            emitted += 1
            if limit is not None and emitted >= limit:
                break
        if emitted:
            released = self._released_count - base
            if released >= _LET_GO_MIN and 2 * released >= len(pending):
                self._let_go()
            if _obs.ENABLED:
                _obs._TRACER.instant(
                    "source.pump",
                    ctx.now,
                    self.name,
                    emitted=emitted,
                    buffered=len(heap),
                )
        return emitted

    def progress_watermark(self) -> Optional[int]:
        """Event-time bound below which this source emits nothing more.

        ``None`` means unbounded — the source is drained and asserts
        nothing further.  In-order sources are bounded by the next
        undelivered arrival; out-of-order sources by the oldest buffered
        event and the disorder bound on undelivered transport
        (``next_delivery - disorder_us``): any future delivery carries
        an event at most ``disorder_us`` older than its delivery time.
        """
        index = self._cursor - self._base
        if index >= len(self._pending):
            if self._reorder:
                return self._reorder[0][0]
            return None
        if not self._out_of_order:
            return self._pending[index][0]
        bound = self._pending[index][0] - self.disorder_us
        if self._reorder and self._reorder[0][0] < bound:
            bound = self._reorder[0][0]
        return max(0, bound)

    def emit_arrival(self, ctx: FiringContext, timestamp: int, value: Any) -> None:
        """Emit one arrival; sub-classes may transform or fan out."""
        port = self._sole_output()
        ctx.send(port, value, timestamp=timestamp)

    def _sole_output(self) -> str:
        name = self._sole_output_name
        if name is not None:
            return name
        if len(self.output_ports) != 1:
            raise ActorError(
                f"source {self.name} must override emit_arrival when it "
                f"has {len(self.output_ports)} output ports"
            )
        name = next(iter(self.output_ports))
        self._sole_output_name = name
        return name

    def fire(self, ctx: FiringContext) -> None:
        self.pump(ctx)

    def state_restore(self, state: dict) -> None:
        """Re-apply the cursor and rebuild the reorder heap.

        The heap is derived state: its entries are exactly the delivered
        (``index < cursor``) arrivals minus the ``_released_count``
        oldest in ``(event_ts, index)`` order — the same order
        :meth:`_pump_out_of_order` pops them in — so a resumed source
        releases the identical remaining sequence.  The ``_base``
        arrivals this source has let go of were all released, and were
        the oldest: they are left out of both sides.  A snapshot taken
        before the source let go of arrivals it still needs (a cursor
        or release count below ``_base``) is refused.
        """
        plain = state["plain"]
        base = self._base
        cursor = plain.get("_cursor", self._cursor)
        released = plain.get("_released_count", self._released_count)
        if cursor < base or (self._out_of_order and released < base):
            raise CheckpointError(
                f"source {self.name}: the snapshot resumes at arrival "
                f"{cursor} ({released} released), but this source has let "
                f"go of its first {base} arrivals — restore onto a rebuilt "
                "engine"
            )
        super().state_restore(state)
        if not self._out_of_order:
            return
        delivered = sorted(
            (
                entry[2] if len(entry) > 2 else entry[0],
                index,
                entry[1],
            )
            for index, entry in enumerate(
                self._pending[: self._cursor - base], start=base
            )
        )
        self._reorder = delivered[self._released_count - base:]
        heapq.heapify(self._reorder)


class FunctionActor(Actor):
    """Wraps a plain function ``fn(ctx)`` as a full actor.

    Convenience for tests, examples and sub-workflow plumbing where defining
    a class per step would be noise.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[FiringContext], None],
        inputs: Sequence[str | tuple[str, WindowSpec]] = ("in",),
        outputs: Sequence[str] = ("out",),
    ):
        super().__init__(name)
        self._fn = fn
        for spec in inputs:
            if isinstance(spec, tuple):
                self.add_input(spec[0], spec[1])
            else:
                self.add_input(spec)
        for out in outputs:
            self.add_output(out)

    def fire(self, ctx: FiringContext) -> None:
        self._fn(ctx)


class MapActor(Actor):
    """One-in/one-out transform: ``out = fn(value)`` per consumed item.

    When the input carries windows, ``fn`` receives the window's payload
    list; when it carries single events, ``fn`` receives the payload.
    Returning ``None`` drops the item (selectivity < 1); returning a list
    fans out (selectivity > 1).
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[Any], Any],
        window: Optional[WindowSpec] = None,
    ):
        super().__init__(name)
        self._fn = fn
        self.add_input("in", window)
        self.add_output("out")

    def fire(self, ctx: FiringContext) -> None:
        item = ctx.read("in")
        if item is None:
            return
        payload = item.values if hasattr(item, "values") else item.value
        result = self._fn(payload)
        if result is None:
            return
        if isinstance(result, list):
            for part in result:
                ctx.send("out", part)
        else:
            ctx.send("out", result)


class SinkActor(Actor):
    """Collects everything it consumes; the terminal probe of a workflow.

    Records ``(engine_time_us, item)`` pairs, and, when items are events or
    windows, response-time samples ``engine_time - external_timestamp``.
    """

    def __init__(self, name: str, callback: Optional[Callable] = None):
        super().__init__(name)
        self.add_input("in")
        self.items: list[tuple[int, Any]] = []
        self.response_times_us: list[tuple[int, int]] = []
        self._callback = callback

    def fire(self, ctx: FiringContext) -> None:
        delivered = 0
        last_response: Optional[int] = None
        while True:
            item = ctx.read("in")
            if item is None:
                break
            delivered += 1
            self.items.append((ctx.now, item))
            timestamp = getattr(item, "timestamp", None)
            if timestamp is not None:
                last_response = ctx.now - timestamp
                self.response_times_us.append((ctx.now, last_response))
            if self._callback is not None:
                self._callback(ctx, item)
        if delivered:
            if _obs.ENABLED:
                _obs._TRACER.instant(
                    "sink.deliver",
                    ctx.now,
                    self.name,
                    count=delivered,
                    response_us=last_response,
                )
                _obs._TRACER.counter("sink.total", ctx.now, len(self.items), self.name)

    @property
    def values(self) -> list:
        out = []
        for _, item in self.items:
            if hasattr(item, "values"):
                out.append(item.values)
            elif hasattr(item, "value"):
                out.append(item.value)
            else:
                out.append(item)
        return out


class CompositeActor(Actor):
    """An actor whose behaviour is a sub-workflow run by an inner director.

    The outer director fires the composite like any opaque actor; the
    composite transfers its staged inputs onto the sub-workflow's boundary
    source ports, runs the inner director to quiescence, and forwards
    whatever reached the sub-workflow's boundary sinks to its own outputs.

    Boundary mapping: ``bind_input(outer_name, inner_actor, inner_port)``
    routes staged items into the inner graph; ``bind_output(outer_name,
    inner_sink)`` declares which inner sink feeds which outer output port.
    """

    def __init__(self, name: str, subworkflow: "Workflow", director):
        super().__init__(name)
        self.subworkflow = subworkflow
        self.director = director
        self._input_bindings: dict[str, tuple[Actor, str]] = {}
        self._output_bindings: dict[str, SinkActor] = {}
        self._initialized = False

    def bind_input(
        self, outer_name: str, inner_actor: Actor, inner_port: str = "in"
    ) -> None:
        if outer_name not in self.input_ports:
            raise PortError(f"{self.name} has no input port {outer_name!r}")
        inner_actor.input(inner_port).boundary = True
        self._input_bindings[outer_name] = (inner_actor, inner_port)

    def bind_output(self, outer_name: str, inner_sink: SinkActor) -> None:
        if outer_name not in self.output_ports:
            raise PortError(f"{self.name} has no output port {outer_name!r}")
        self._output_bindings[outer_name] = inner_sink

    # ------------------------------------------------------------------
    def initialize(self, ctx: FiringContext) -> None:
        self.director.attach(self.subworkflow)
        self.director.initialize_all()
        self._initialized = True

    def fire(self, ctx: FiringContext) -> None:
        if not self._initialized:
            raise ActorError(
                f"composite {self.name} fired before initialization"
            )
        for outer_name in list(self.input_ports):
            binding = self._input_bindings.get(outer_name)
            if binding is None:
                continue
            inner_actor, inner_port = binding
            while True:
                item = ctx.read(outer_name)
                if item is None:
                    break
                self.director.inject(inner_actor, inner_port, item, ctx.now)
        self.director.run_to_quiescence(ctx.now)
        for outer_name, sink in self._output_bindings.items():
            for _, item in sink.items:
                value = item.value if hasattr(item, "value") else item
                ctx.send(outer_name, value)
            sink.items.clear()
            sink.response_times_us.clear()

    def wrapup(self, ctx: FiringContext) -> None:
        if self._initialized:
            self.director.wrapup_all()

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Hierarchical workflows are not yet checkpointable.

        The composite's inner director owns its own receivers, statistics
        and scheduler; snapshotting the hierarchy consistently needs a
        recursive barrier that is out of scope for the flat benchmark
        workflows — fail loudly instead of silently dropping inner state.
        """
        raise CheckpointError(
            f"composite actor {self.name!r} cannot be checkpointed: "
            "hierarchical sub-workflows are not supported yet"
        )

    def state_restore(self, state: dict) -> None:
        """Mirror of :meth:`state_dump` — composites cannot be restored."""
        raise CheckpointError(
            f"composite actor {self.name!r} cannot be restored from a "
            "checkpoint: hierarchical sub-workflows are not supported yet"
        )

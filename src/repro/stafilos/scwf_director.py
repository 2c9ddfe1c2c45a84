"""The Scheduled CWF (SCWF) director — the heart of STAFiLOS.

The SCWF director is the component that interacts with the workflow model:
it initializes the actors, ports, receivers and the scheduler, and
transitions the workflow through the execution stages of each iteration.
It is *schedule-independent*: the policy is any
:class:`~repro.stafilos.abstract_scheduler.AbstractScheduler`.

One director iteration follows the paper's Figure 3 exactly::

    prefire: signal scheduler (iteration start)
    fire:    loop {
                 actor = scheduler.getNextActor()
                 if actor is None: break
                 if source:   pump due arrivals
                 else:        dequeue ready item -> stage in TM receiver
                              prefire/fire/postfire actor, timing the cost
                 produced events flow through TM receivers back into the
                 scheduler's per-actor ready queues
             }
    postfire: signal scheduler (iteration end: requantify, roll period...)

Time is supplied by a pluggable clock (``now_us``/``advance``/``jump_to``)
and firing costs by a pluggable cost model — virtual implementations live
in :mod:`repro.simulation`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.actors import Actor, SourceActor
from ..core.context import FiringContext
from ..core.director import Director
from ..core.events import CWEvent
from ..core.exceptions import DirectorError
from ..core.ports import InputPort
from ..core.receivers import Receiver
from ..core.windows import Window
from ..observability import tracer as _obs
from ..resilience import FailureAction, FaultPolicy
from .abstract_scheduler import AbstractScheduler
from .tm_receiver import TMWindowedReceiver

#: Stand-in event-time bound for "the stream has fully drained": far
#: beyond any admissible timestamp, so every pending pane closes.
_FAR_FUTURE = 2**62


class SCWFDirector(Director):
    """Generic, pluggable scheduled continuous-workflow director."""

    model_name = "SCWF"

    def __init__(
        self,
        scheduler: AbstractScheduler,
        clock,
        cost_model,
        max_firings_per_iteration: int = 5_000_000,
        error_policy: FaultPolicy = FaultPolicy(propagate=True),
        train_size: Optional[int] = None,
    ):
        super().__init__()
        self.supervise(error_policy)
        if train_size is not None and (
            not isinstance(train_size, int) or train_size < 1
        ):
            raise DirectorError(
                f"train_size must be a positive int or None, got {train_size!r}"
            )
        #: Loop bound of the firing loop: how many ready items one
        #: dispatch of a non-source actor may drain before the scheduler
        #: is consulted afresh, and the chunk size emission trains are
        #: flushed in.  ``None`` (the default) drains until the scheduler
        #: switches away.  Not a tuning knob: every value produces the
        #: same outputs, clock and counters (see ``run_iteration``); the
        #: benchmark harness and the oracle tests pass it in.
        self.train_size = train_size
        self.scheduler = scheduler
        self.clock = clock
        self.cost_model = cost_model
        #: Optional :class:`repro.frontier.FrontierTracker`; installed
        #: via :meth:`enable_frontier` *before* ``attach`` so receiver
        #: creation can see the closure mode.  ``None`` keeps every hot
        #: path on the historical branch.
        self.frontier = None
        #: Lateness policy handed to timed receivers at creation.
        self.frontier_lateness = None
        self.max_firings_per_iteration = max_firings_per_iteration
        self.iterations = 0
        self.total_internal_firings = 0
        self.total_source_firings = 0
        self.total_events_admitted = 0
        #: Per-actor firing plans (:meth:`_plan_for`), built on first
        #: dispatch and dropped by ``initialize_all``.
        self._plans: dict[Actor, tuple] = {}
        #: Per-consumer bound ``ActorStats.record_input`` (the intake
        #: half of a hop), resolved on first admission; same lifetime.
        self._record_inputs: dict[Actor, Callable[[int, int], None]] = {}
        self._timed_receivers: list[TMWindowedReceiver] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def create_receiver(self, port: InputPort) -> Receiver:
        receiver = TMWindowedReceiver(port.window, self, port)
        frontier_closes = (
            self.frontier is not None and self.frontier.mode == "close"
        )
        if port.window is not None and port.window.measure.value == "time":
            self._timed_receivers.append(receiver)
            if self.frontier_lateness is not None:
                receiver.lateness = self.frontier_lateness
            # Under frontier closure, timed panes close when the
            # event-time frontier passes them — the engine-time
            # formation-timeout watch would race it non-deterministically
            # across placements, so it is not registered.
            if not frontier_closes:
                self._watch_deadline(port, receiver)
        return receiver

    def initialize_all(self) -> None:
        super().initialize_all()
        workflow = self._require_attached()
        self._plans.clear()
        self._record_inputs.clear()
        self.scheduler.initialize(workflow, self.statistics)
        # Fused chains prebind the cost model and per-member statistics
        # records so per-hop attribution works from the first firing.
        for actor in workflow.actors.values():
            bind = getattr(actor, "bind_runtime", None)
            if bind is not None:
                bind(self)

    def current_time(self) -> int:
        return self.clock.now_us

    def make_context(self, actor: Actor, now: int) -> FiringContext:
        ctx = super().make_context(actor, now)
        ctx.enable_batch_emission(self.train_size)
        return ctx

    # ------------------------------------------------------------------
    # Scheduler intake (invoked by TM receivers)
    # ------------------------------------------------------------------
    def schedule_ready(
        self, actor: Actor, port_name: str, item: Window | CWEvent
    ) -> None:
        self.total_events_admitted += 1
        # ``statistics.record_input(actor, 1, now)``, on the consumer's
        # record directly instead of through the by-name registry walk.
        now = self.clock.now_us
        statistics = self.statistics
        if now > statistics._last_now_us:
            statistics._last_now_us = now
        (self._record_inputs.get(actor) or self._intake_for(actor))(1, now)
        self.scheduler.enqueue(actor, port_name, item)

    def _intake_for(self, actor: Actor) -> Callable[[int, int], None]:
        record_input = self._record_inputs[actor] = (
            self.statistics.register(actor).record_input
        )
        return record_input

    def schedule_ready_batch(
        self,
        actor: Actor,
        port_name: str,
        items: "list[Window | CWEvent]",
        stamps: Optional[list[int]] = None,
    ) -> None:
        """Train intake: admit a burst of ready items in one call.

        Same observable effect as ``schedule_ready`` per item — the
        admission counter and input statistics are count-based, and
        ``enqueue_batch`` is admission-order equivalent to an enqueue
        loop (falling back to one when a shedder must see every event).
        A held train passes *stamps*, each item's admission time
        (ascending): its input samples are recorded as if every item
        had been admitted when its firing ended.
        """
        count = len(items)
        if count == 0:
            return
        if stamps is not None:
            self.total_events_admitted += count
            self.statistics.record_inputs(actor, stamps)
            self.scheduler.enqueue_batch(actor, port_name, items)
            return
        if count == 1:
            self.schedule_ready(actor, port_name, items[0])
            return
        self.total_events_admitted += count
        now = self.clock.now_us
        statistics = self.statistics
        if now > statistics._last_now_us:
            statistics._last_now_us = now
        (self._record_inputs.get(actor) or self._intake_for(actor))(count, now)
        self.scheduler.enqueue_batch(actor, port_name, items)

    # ------------------------------------------------------------------
    # The director iteration cycle
    # ------------------------------------------------------------------
    def run_iteration(self) -> tuple[int, int]:
        """One full director iteration: the one firing loop.

        Returns ``(internal_firings, source_emissions)`` so the runtime can
        detect lack of progress and fast-forward the clock.

        Bit-identical to the paper's Figure 3 read literally
        (``get_next_actor`` → dispatch overhead → fire one item; kept as
        the reference oracle in ``tests/per_event_director.py``): every
        item is dequeued, charged (dispatch overhead, invocation or
        failure cost) and fired in the per-event order.  What is
        amortized is set-up: the loop's bindings are made once per
        iteration, and an actor's plan (:meth:`_plan_for`) is unpacked
        once per *train*, the items it fires while the scheduler keeps
        choosing it, up to ``train_size``.  A policy that overrides
        ``continue_train`` may extend a train without a fresh decision;
        any other is consulted after every item, and a decision is
        consumed exactly once (RR advances its source rotation inside
        ``get_next_actor``).

        A train of an actor that may hold (:meth:`_may_hold`) *seals*
        each item instead of closing it: the wave marks become final,
        but the emissions stay in the context, stamped with the engine
        time ``close`` would have delivered them at, and the item's cost
        joins the train's tally instead of reaching the scheduler and
        the statistics.  Such a train *settles* (:meth:`_settle`) before
        the scheduler is consulted, and before an exception leaves the
        loop: its emissions cross each route once, the scheduler hears
        one ``on_actor_fire_end`` with the summed cost and the item
        count, and ``continue_train`` answers from the running tally
        meanwhile.  Any other train delivers and reports every item as
        it ends.  Trains never outlive the iteration, so checkpoints
        (taken between iterations) have no in-flight train to capture.
        """
        self._require_attached()
        scheduler = self.scheduler
        clock = self.clock
        advance = clock.advance
        cost_model = self.cost_model
        dispatch_us = cost_model.dispatch_overhead_us
        get_next_actor = scheduler.get_next_actor
        fire_start = scheduler.on_actor_fire_start
        fire_end = scheduler.on_actor_fire_end
        continue_train = (
            None
            if type(scheduler).continue_train
            is AbstractScheduler.continue_train
            else scheduler.continue_train
        )
        supervisor = self.supervisor
        # Empty until some actor fails: only then is there a circuit to
        # find open or a failure streak to close.
        health = supervisor.records
        frontier = self.frontier
        # With tracing off, ``dequeue_item`` reduces to a queue pop plus a
        # state invalidation that the per-item ``fire_end`` hook (or the
        # explicit empty-dequeue branch below) performs anyway — pop the
        # queue directly.  With tracing on, keep the full call so the
        # ``sched.queue_depth`` counter fires per dequeue.
        obs_on = _obs.ENABLED
        plans = self._plans
        limit = self.max_firings_per_iteration
        # Drain-all is bounded only by the livelock guard.
        budget = self.train_size or limit + 1
        self.iterations += 1
        iteration_start = clock.now_us
        scheduler.on_iteration_start(iteration_start)
        internal_firings = source_emissions = fired_total = 0
        # The tally of a holding train: invocation costs not yet
        # recorded, and the firing cost and count of the items not yet
        # reported.
        costs: list[int] = []
        spent = unsettled = 0
        next_actor = get_next_actor()
        try:
            while next_actor is not None and fired_total <= limit:
                actor = next_actor
                if obs_on:
                    _obs._TRACER.instant(
                        "sched.dispatch",
                        clock.now_us,
                        actor.name,
                        source=actor.is_source,
                    )
                advance(dispatch_us)
                if actor.is_source:
                    source_emissions += self._fire_source(actor)
                    fired_total += 1
                    next_actor = get_next_actor()
                    continue
                # A train: *actor*'s items for as long as the scheduler
                # keeps choosing it, up to ``train_size``.
                plan = plans.get(actor) or self._plan_for(actor)
                if plan[5] and plan[6] != self.workflow._structure_version:
                    # A channel connected since can make holding inexact.
                    plan = self._plan_for(actor)
                (
                    ctx, batchable, fused_flush, queue_pop,
                    record_invocation, hold, _,
                    base, per_input, per_output, scale, low, width, draw,
                ) = plan
                hold = hold and scheduler.shedder is None
                if hold:
                    record_invocation = costs.append
                # An instance-level ``fire`` (a fault injector's guard)
                # must run: the shortcut would bypass it.
                fire_batch = (
                    actor.fire_batch
                    if batchable and "fire" not in actor.__dict__
                    else None
                )
                train_start = end_now = clock.now_us
                train_budget = min(budget, limit + 1 - fired_total)
                fired = items = 0
                while True:
                    ready = (
                        scheduler.dequeue_item(actor)
                        if obs_on
                        else queue_pop()
                    )
                    items += 1
                    if ready is None:
                        # The policy considered the actor runnable, but
                        # its queue is empty (e.g. state staleness): a
                        # no-op dispatch.
                        scheduler.invalidate_state(actor)
                    elif health and supervisor.is_quarantined(actor.name):
                        # Open circuit: the item bypasses execution.
                        end_now = clock.now_us
                        fire_start(actor, end_now)
                        supervisor.drop_quarantined(
                            actor, ready.port_name, ready.item, end_now
                        )
                        if frontier is not None:
                            frontier.retire_item(ready.item)
                        if hold:
                            unsettled += 1
                        else:
                            fire_end(actor, 0, end_now)
                    else:
                        now = clock.now_us
                        fire_start(actor, now)
                        ctx.reset(now)
                        ctx.stage(ready.port_name, ready.item)
                        fired_this = False
                        attempt = 0
                        while True:
                            try:
                                if fire_batch is not None:
                                    fire_batch(ctx)
                                    fired_this = True
                                elif actor.prefire(ctx):
                                    actor.fire(ctx)
                                    actor.postfire(ctx)
                                    fired_this = True
                                if hold:
                                    ctx.seal(clock.now_us)
                                else:
                                    ctx.close()
                                # Only a completed attempt records an
                                # invocation.
                                if fused_flush is not None:
                                    # Fused chains accrue per-member
                                    # charges internally; advance by the
                                    # sum, then let the chain attribute
                                    # costs/tokens per member and emit
                                    # its finals.
                                    advance(actor.take_pending_cost())
                                    fused_flush(clock.now_us)
                                else:
                                    if base is not None:
                                        # ``CostModel.invocation_charge``,
                                        # inline.
                                        cost = (
                                            base
                                            + per_input * ctx.inputs_consumed
                                            + per_output
                                            * ctx.outputs_produced
                                        )
                                        if draw is not None:
                                            jitter = low + width * draw()
                                            cost = round(
                                                cost * scale * (1.0 + jitter)
                                            )
                                        elif scale is not None:
                                            cost = round(cost * scale)
                                        if cost < 1:
                                            cost = 1
                                    else:
                                        cost = cost_model.invocation_cost(
                                            actor, ctx
                                        )
                                    advance(cost)
                                    record_invocation(cost)
                                if health:
                                    supervisor.on_success(actor)
                                break
                            except Exception as error:
                                attempt += 1
                                if self._recover(
                                    actor, ctx, ready, error, attempt
                                ):
                                    continue
                                fired_this = False
                                break
                        if frontier is not None:
                            # The item's token retires only after its
                            # firing settled — emissions flushed at
                            # ctx.close() re-upped the root first, so a
                            # live wave's count never transiently
                            # reaches zero.
                            frontier.retire_item(ready.item)
                        end_now = clock.now_us
                        if hold:
                            spent += end_now - now
                            unsettled += 1
                        else:
                            fire_end(actor, end_now - now, end_now)
                        if fired_this:
                            fired += 1
                    if (
                        items >= train_budget
                        or continue_train is None
                        or not continue_train(actor, spent, unsettled, end_now)
                    ):
                        if unsettled:
                            self._settle(
                                actor, ctx, costs, spent, unsettled, end_now
                            )
                            spent = unsettled = 0
                        next_actor = get_next_actor()
                        if next_actor is not actor or items >= train_budget:
                            break
                    # The train continues: charge the dispatch the
                    # per-event loop would have paid for re-selecting the
                    # same actor.
                    if obs_on:
                        _obs._TRACER.instant(
                            "sched.dispatch",
                            clock.now_us,
                            actor.name,
                            source=False,
                        )
                    advance(dispatch_us)
                internal_firings += fired
                fired_total += items
                if obs_on:
                    _obs._TRACER.span(
                        "actor.fire_train",
                        train_start,
                        clock.now_us - train_start,
                        actor.name,
                        items=items,
                        fired=fired,
                    )
        finally:
            if unsettled:
                self._settle(actor, ctx, costs, spent, unsettled, end_now)
        if fired_total > limit:
            raise DirectorError(
                f"director iteration exceeded {limit} firings; "
                "scheduler livelock?"
            )
        now = clock.now_us
        scheduler.on_iteration_end(now)
        if obs_on and fired_total:
            _obs._TRACER.span(
                "director.iteration",
                iteration_start,
                now - iteration_start,
                internal=internal_firings,
                sources=source_emissions,
            )
            _obs._TRACER.counter("sched.backlog", now, scheduler.total_backlog())
        self.total_internal_firings += internal_firings
        self.total_source_firings += source_emissions
        return internal_firings, source_emissions

    def _fire_source(self, source: SourceActor) -> int:
        scheduler = self.scheduler
        now = self.clock.now_us
        allowance = None
        if self.overload is not None:
            allowance = self.overload.pump_allowance(source, now)
            if allowance == 0:
                # Paused by backpressure or token-starved: the dispatch
                # was drawn before the gate closed.  No-op, like an
                # empty-queue internal dispatch.  (``pump`` checks its
                # limit only *after* emitting, so a zero cap must skip
                # the pump call entirely.)
                scheduler.invalidate_state(source)
                scheduler.on_actor_fire_end(source, 0, now)
                return 0
        frontier = self.frontier
        if (
            frontier is not None
            and frontier.mode == "close"
            and not frontier.external
            and (scheduler.total_backlog() or self.consult_frontier())
        ):
            # Frontier-closure admission order: an in-order run reaches
            # a delivery's clock time only after every pane the frontier
            # passed has closed, fired and flushed — the engine settles,
            # then closes, then admits.  An out-of-order source's ripe
            # backlog would otherwise make it dispatchable mid-cascade,
            # letting an arrival overtake a closure's output.  Defer the
            # pump while internal work is pending or a closure round
            # just staged more; the rotation retries the source once the
            # cascade has settled and the bound is fully applied.
            scheduler.invalidate_state(source)
            scheduler.on_actor_fire_end(source, 0, now)
            return 0
        start = now
        scheduler.on_actor_fire_start(source, now)
        ctx = self.make_context(source, now)
        if not source.prefire(ctx):
            scheduler.on_actor_fire_end(source, 0, now)
            return 0
        if allowance is None:
            emitted = source.pump(ctx)
        else:
            # Cap the pump train at the admission allowance.
            saved_limit = source.batch_limit
            limit = (
                allowance
                if saved_limit is None
                else min(allowance, saved_limit)
            )
            source.batch_limit = limit
            try:
                emitted = source.pump(ctx)
            finally:
                source.batch_limit = saved_limit
            self.overload.note_pumped(source, emitted)
        source.postfire(ctx)
        ctx.close()
        cost = self.cost_model.source_cost(source, emitted)
        now = self.clock.advance(cost)
        self.statistics.record_invocation(source, cost)
        scheduler.on_actor_fire_end(source, cost, now)
        if _obs.ENABLED:
            _obs._TRACER.span(
                "actor.fire", start, cost, source.name, emitted=emitted
            )
        return emitted

    def _plan_for(self, actor: Actor) -> tuple:
        """Resolve, once per actor, what no dispatch of *actor* can change.

        A train (under FIFO, nearly every dispatch is a one-item train)
        then unpacks one tuple.  Not planned: the actor's bound lifecycle
        methods (a fault injector shadows ``fire`` on the instance,
        possibly mid-run).  A plan that holds is rebuilt when the
        workflow's structure changes.
        """
        kind = type(actor)
        # The stateless ``fire_batch`` shortcut may replace the
        # prefire/fire/postfire triple only when the class kept the
        # trivial base-class lifecycle (both default to "always ready").
        batchable = (
            hasattr(kind, "fire_batch")
            and kind.prefire is Actor.prefire
            and kind.postfire is Actor.postfire
        )
        # Fused chains settle their own per-member charges; the generic
        # cost path must not double-charge them.
        fused_flush = getattr(actor, "flush_fused_charges", None)
        # The loop charges inline from the model's constants when it
        # publishes them (``CostModel.invocation_charge``, the plan's
        # tail).  Duck typed, so custom cost models silently keep the
        # ``invocation_cost`` call (a ``None`` base).
        charge_fn = getattr(self.cost_model, "invocation_charge", None)
        charge = (
            None
            if charge_fn is None or fused_flush is not None
            else charge_fn(actor)
        )
        plan = self._plans[actor] = (
            # The firing context, recycled by ``reset`` per item.
            self.make_context(actor, self.clock.now_us),
            batchable,
            fused_flush,
            # The ready queue lives as long as the scheduler's
            # ``initialize``, which drops every plan.
            self.scheduler.ready[actor.name].pop,
            # The registry-level ``record_invocation`` is a pure
            # delegation to this bound method.
            self.statistics.register(actor).record_invocation,
            # A fused chain settles its members once per composed
            # firing already; with its ~2-item trains, holding measured
            # no gain.
            fused_flush is None and self._may_hold(actor),
            self.workflow._structure_version,
        ) + (charge or (None, 0, 0, None, 0.0, 0.0, None))
        return plan

    def _may_hold(self, actor: Actor) -> bool:
        """May *actor*'s trains hold their emissions until the train ends?

        Only where that is exact, and only where it can pay.  It cannot
        pay under a policy that never continues a train.  It is not
        exact when a frontier tracker would count tokens between retire
        and observe, when the actor feeds its own input, when two
        channels lead into one consumer (per-event order between its
        ports would show), or when a consumer's port has a window: a
        window insert can raise (a missing group-by field), and the
        producing item's fault barrier must see that raise while its
        train is still running.  Every held route therefore ends in
        windowless ports, whose delivery is a queue append.  A load
        shedder, which may be installed mid-run, is checked per train.
        """
        if (
            self.frontier is not None
            or type(self.scheduler).continue_train
            is AbstractScheduler.continue_train
        ):
            return False
        consumers = {actor}
        for port in actor.output_ports.values():
            for channel in port.outgoing:
                consumer = channel.sink.actor
                receiver = channel.sink.receiver
                if (
                    consumer in consumers
                    or not isinstance(receiver, TMWindowedReceiver)
                    or not receiver._passthrough
                ):
                    return False
                consumers.add(consumer)
        return True

    def _recover(self, actor, ctx, ready, error, attempt: int) -> bool:
        """Fault barrier of a failed attempt: discard its partial
        emissions (and a fused chain's partial charges), charge the
        (cheaper) failure cost, and let the supervisor decide.  Returns
        ``True`` to retry (the item staged again after the engine-time
        backoff), ``False`` when the item was dead-lettered; re-raises
        under fail-stop."""
        ctx.abort()
        ctx.close()
        if hasattr(actor, "discard_fused_charges"):
            actor.discard_fused_charges()
        clock = self.clock
        decision = self.supervisor.on_failure(
            actor, ready.port_name, ready.item, error, attempt, clock.now_us
        )
        if decision.action is FailureAction.PROPAGATE:
            raise error
        clock.advance(self.cost_model.failure_cost(actor, ctx))
        if _obs.ENABLED:
            _obs._TRACER.instant(
                "actor.error",
                clock.now_us,
                actor.name,
                error=type(error).__name__,
                attempt=attempt,
            )
        if decision.action is FailureAction.RETRY:
            # Exponential backoff charged in engine time.
            clock.advance(decision.backoff_us)
            ctx.reset(clock.now_us)
            ctx.stage(ready.port_name, ready.item)
            return True
        return False

    def _settle(self, actor, ctx, costs, spent, unsettled, end_now) -> None:
        """Settle a holding train: deliver what its items emitted, then
        report them to the statistics and the scheduler at once."""
        emitted = ctx.deliver_held()
        if emitted:
            self.statistics.record_outputs(
                actor, [event.timestamp for event in emitted]
            )
        if costs:
            self.statistics.register(actor).record_invocations(costs)
            costs.clear()
        if unsettled:
            self.scheduler.on_actor_fire_end(actor, spent, end_now, unsettled)

    # ------------------------------------------------------------------
    # Frontier progress (repro.frontier)
    # ------------------------------------------------------------------
    def enable_frontier(self, tracker, lateness=None) -> None:
        """Install a frontier tracker (call *before* ``attach``).

        Receiver creation consults the tracker's mode — ``"close"``
        replaces the engine-time formation-timeout watch with
        event-time frontier closure — so enabling after attachment
        would leave the deadline watch armed.
        """
        if self._attached:
            raise DirectorError(
                "enable_frontier must be called before attach()"
            )
        self.frontier = tracker
        self.frontier_lateness = lateness
        tracker.bind_counters(self.statistics.engine_counters)

    def close_frontier_windows(self, up_to_us: int) -> int:
        """Apply an event-time frontier to every timed receiver.

        Closure is *graduated*: each call closes only the earliest
        pending pane boundary at or before *up_to_us*, then returns so
        the scheduler can fire the staged windows and flush their
        emissions before any later boundary closes.  A windowed actor
        feeding another windowed actor (AvgSv → AvgS in Linear Road)
        needs this — closing both panes in one sweep would deliver the
        upstream firing's output *after* the downstream pane it belongs
        to has already closed, silently dropping it as a straggler.
        Barren boundaries (a pane whose range holds no queued events)
        stage nothing, so the loop continues through them in place.
        """
        produced = 0
        while True:
            boundary = None
            for receiver in self._timed_receivers:
                b = receiver.next_frontier_boundary(up_to_us)
                if b is not None and (boundary is None or b < boundary):
                    boundary = b
            if boundary is None:
                if self.frontier is not None and produced == 0:
                    # Nothing left to close below the bound: record the
                    # full bound so idle consults stop rescanning until
                    # the frontier moves again.
                    self.frontier.note_applied(up_to_us)
                break
            for receiver in self._timed_receivers:
                produced += receiver.close_on_frontier(boundary)
            if self.frontier is not None:
                self.frontier.note_applied(boundary)
            if produced:
                break
        return produced

    def frontier_bound(self) -> Optional[int]:
        """The event-time bound no in-flight or future event precedes.

        The minimum of every source's progress watermark and the
        tracker's outstanding-token frontier; ``None`` when the system
        has fully drained (no bound — every pane is complete).
        """
        workflow = self._require_attached()
        bounds = []
        for source in workflow.sources:
            mark = source.progress_watermark()
            if mark is not None:
                bounds.append(mark)
        frontier_ts = self.frontier.frontier_ts()
        if frontier_ts is not None:
            bounds.append(frontier_ts)
        return min(bounds) if bounds else None

    def consult_frontier(self) -> int:
        """Idle-loop hook: publish progress, close passed panes.

        Returns the number of windows the frontier produced, so the
        runtime treats a closure like any other productive work instead
        of fast-forwarding past it.  Externally driven trackers (shard
        workers applying the coordinator's merged minimum) never
        self-close.
        """
        tracker = self.frontier
        if tracker is None:
            return 0
        now = self.clock.now_us
        tracker.publish(now)
        if tracker.mode != "close" or tracker.external:
            return 0
        bound = self.frontier_bound()
        if bound is None:
            # Fully drained: every remaining pane is complete.
            bound = _FAR_FUTURE
        if bound <= tracker.applied_us:
            return 0
        produced = self.close_frontier_windows(bound)
        if _obs.ENABLED and produced:
            _obs._TRACER.instant(
                "frontier.closed_windows", now,
                bound=bound, produced=produced,
            )
        return produced

    def backlog(self) -> int:
        return self.scheduler.total_backlog()

    # ------------------------------------------------------------------
    # QoS
    # ------------------------------------------------------------------
    def apply_qos(self, policy):
        """Install an overload controller enforcing *policy*.

        Convenience for the common wiring::

            director.apply_qos(QoSPolicy(latency_slo_s=5.0, ...))

        Builds a :class:`repro.overload.OverloadController` from the
        :class:`repro.overload.QoSPolicy` and installs it at the
        scheduler's shedding hook points.  Returns the controller (e.g.
        to attach a latency probe).
        """
        from ..overload import OverloadController

        return OverloadController(policy).install(self)

    # ------------------------------------------------------------------
    # Checkpointable protocol (director-local state only)
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot the director's own counters (Checkpointable).

        Scheduler, receivers, supervisor, statistics, clock and cost
        model are separate checkpoint components — the orchestrator in
        :mod:`repro.checkpoint.snapshot` walks them individually.
        """
        return {
            "iterations": self.iterations,
            "total_internal_firings": self.total_internal_firings,
            "total_source_firings": self.total_source_firings,
            "total_events_admitted": self.total_events_admitted,
        }

    def state_restore(self, state: dict) -> None:
        """Re-apply the director counters.  (Dumps written before
        ``actor_errors`` became a view of the supervisor's records carry
        a copy of it; the supervisor's own dump restores the same.)"""
        self.iterations = int(state["iterations"])
        self.total_internal_firings = int(state["total_internal_firings"])
        self.total_source_firings = int(state["total_source_firings"])
        self.total_events_admitted = int(state["total_events_admitted"])

"""The per-event SCWF firing loop (the pre-train reference path).

``SCWFDirector`` used to ship two internal firing paths: this strictly
per-event one (the paper's Figure 3 read literally — one scheduling
decision, one staged item, one fresh firing context per event) beside
the event-train loop that is now the director's one ``run_iteration``.
The subclass below reproduces the historical path verbatim and exists
solely as the oracle for ``test_train.py`` / ``test_fusion.py`` and as
the slow side of ``benchmarks/bench_train_throughput.py``: the shipped
loop must produce the **identical** sink traces, wave tags, dispatch
sequence, counters and final clock for every loop bound.  It overrides
``run_iteration`` whole, so no part of the shipped loop runs under it
(``test_train.py::TestPerEventOracle`` counts its decisions).  Keep it
byte-for-byte dumb; any cleverness here defeats the point of the oracle.
"""

from __future__ import annotations

from repro.core.actors import Actor
from repro.core.director import Director
from repro.core.exceptions import DirectorError
from repro.observability import tracer as _obs
from repro.resilience import FailureAction
from repro.stafilos.scwf_director import SCWFDirector
from repro.stafilos.tm_receiver import TMWindowedReceiver


class PerEventSCWFDirector(SCWFDirector):
    """SCWF with one scheduling decision and one context per event."""

    def make_context(self, actor: Actor, now: int):
        # No emission trains: every event is broadcast on its own.
        return Director.make_context(self, actor, now)

    def run_iteration(self) -> tuple[int, int]:
        """Figure 3: ask the scheduler, fire one item (or pump), repeat."""
        self._require_attached()
        scheduler = self.scheduler
        self.iterations += 1
        iteration_start = self.clock.now_us
        scheduler.on_iteration_start(iteration_start)
        internal_firings = 0
        source_emissions = 0
        dispatches = 0
        limit = self.max_firings_per_iteration
        while True:
            actor = scheduler.get_next_actor()
            if actor is None:
                break
            if _obs.ENABLED:
                _obs._TRACER.instant(
                    "sched.dispatch",
                    self.clock.now_us,
                    actor.name,
                    source=actor.is_source,
                )
            self.clock.advance(self.cost_model.dispatch_overhead_us)
            if actor.is_source:
                source_emissions += self._fire_source(actor)
            elif self._fire_one(actor):
                internal_firings += 1
            dispatches += 1
            if dispatches > limit:
                raise DirectorError(
                    f"director iteration exceeded {limit} firings; "
                    "scheduler livelock?"
                )
        now = self.clock.now_us
        scheduler.on_iteration_end(now)
        if _obs.ENABLED and dispatches:
            _obs._TRACER.span(
                "director.iteration",
                iteration_start,
                now - iteration_start,
                internal=internal_firings,
                sources=source_emissions,
            )
            _obs._TRACER.counter(
                "sched.backlog", now, scheduler.total_backlog()
            )
        self.total_internal_firings += internal_firings
        self.total_source_firings += source_emissions
        return internal_firings, source_emissions

    def _fire_one(self, actor: Actor) -> bool:
        scheduler = self.scheduler
        ready = scheduler.dequeue_item(actor)
        if ready is None:
            # The policy considered the actor runnable, but its queue is
            # empty (e.g. state staleness); treat as a no-op dispatch.
            scheduler.invalidate_state(actor)
            return False
        supervisor = self.supervisor
        if supervisor.is_quarantined(actor.name):
            # Open circuit: the item bypasses execution entirely.
            now = self.clock.now_us
            scheduler.on_actor_fire_start(actor, now)
            supervisor.drop_quarantined(
                actor, ready.port_name, ready.item, now
            )
            if self.frontier is not None:
                self.frontier.retire_item(ready.item)
            scheduler.on_actor_fire_end(actor, 0, now)
            return False
        now = self.clock.now_us
        start = now
        scheduler.on_actor_fire_start(actor, now)
        port = actor.input(ready.port_name)
        receiver = port.receiver
        assert isinstance(receiver, TMWindowedReceiver)
        fused_flush = getattr(actor, "flush_fused_charges", None)
        fired = False
        attempt = 0
        while True:
            ctx = self.make_context(actor, self.clock.now_us)
            ctx.stage(ready.port_name, ready.item)
            try:
                if actor.prefire(ctx):
                    actor.fire(ctx)
                    actor.postfire(ctx)
                    fired = True
                ctx.close()
                # Only a completed attempt records a full invocation.
                if fused_flush is not None:
                    self.clock.advance(actor.take_pending_cost())
                    fused_flush(self.clock.now_us)
                else:
                    cost = self.cost_model.invocation_cost(actor, ctx)
                    self.clock.advance(cost)
                    self.statistics.record_invocation(actor, cost)
                supervisor.on_success(actor)
                break
            except Exception as error:
                # Fault barrier: discard the failed firing's partial
                # emissions, charge the (cheaper) failure cost, and let
                # the supervisor decide: retry, dead-letter or propagate.
                ctx.abort()
                ctx.close()
                if fused_flush is not None:
                    actor.discard_fused_charges()
                attempt += 1
                decision = supervisor.on_failure(
                    actor,
                    ready.port_name,
                    ready.item,
                    error,
                    attempt,
                    self.clock.now_us,
                )
                if decision.action is FailureAction.PROPAGATE:
                    raise
                self.clock.advance(
                    self.cost_model.failure_cost(actor, ctx)
                )
                if _obs.ENABLED:
                    _obs._TRACER.instant(
                        "actor.error",
                        self.clock.now_us,
                        actor.name,
                        error=type(error).__name__,
                        attempt=attempt,
                    )
                if decision.action is FailureAction.RETRY:
                    # Exponential backoff charged in engine time.
                    self.clock.advance(decision.backoff_us)
                    continue
                # Dead-lettered by the supervisor.
                fired = False
                break
        if self.frontier is not None:
            self.frontier.retire_item(ready.item)
        now = self.clock.now_us
        elapsed = now - start
        scheduler.on_actor_fire_end(actor, elapsed, now)
        if _obs.ENABLED:
            _obs._TRACER.span(
                "actor.fire",
                start,
                elapsed,
                actor.name,
                fired=fired,
                port=ready.port_name,
                attempts=attempt + 1 if fired or attempt else 1,
            )
        return fired

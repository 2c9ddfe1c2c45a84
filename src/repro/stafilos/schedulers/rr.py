"""The Round-Robin Scheduler (RR).

The traditional fair policy: at each scheduling period every active actor
receives the same time slice (quantum) and actors are served in round-robin
order.  An actor that drains its ready events goes INACTIVE and gives up
its remaining slice; an actor that exhausts its slice WAITs until the next
period.  New events arriving mid-period are processed if the actor still
has slice; an INACTIVE actor that receives events is (re)assigned a slice
and placed at the *end* of the round-robin queue.  The period rolls over
when the active queue empties (the director's end of iteration).

Sources are regulated exactly as in QBS: one source firing every
``source_interval`` internal invocations, at most once per iteration.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ...core.actors import Actor
from ...core.events import CWEvent
from ...core.windows import Window
from ...observability import tracer as _obs
from ..abstract_scheduler import AbstractScheduler
from ..ready import ReadyQueue
from .qbs import QuantumPriorityScheduler


#: "No source can ever become runnable" horizon sentinel (engine times
#: are microsecond ints well below this).
_NEVER = 2**63


class RoundRobinScheduler(AbstractScheduler):
    """Equal slices, rotation order, no priorities."""

    policy_name = "RR"

    #: Sources are interval-regulated through their own rotation; only
    #: internal actors enter the ready-ring.  The LazyHeapIndex keyed by
    #: the rotation ticket *is* the rotating ready-ring: actors enter at
    #: the back (a fresh, higher ticket) and the earliest ticket is
    #: served first.
    index_includes_sources = False

    #: Mutable policy state for checkpointing; the rotation *counter* is
    #: handled separately in :meth:`policy_state_dump` (itertools.count
    #: does not expose assignment).
    checkpoint_attrs = (
        "quantum",
        "periods",
        "_order",
        "_fired_sources",
        "_internal_since_source",
        "_source_rotation",
    )

    def __init__(self, slice_us: int = 10_000, source_interval: int = 5):
        super().__init__()
        self.slice_us = slice_us
        self.source_interval = source_interval
        self.quantum: dict[str, int] = {}
        self.periods = 0
        self._rotation = itertools.count()
        self._order: dict[str, int] = {}
        #: Rotation ticket of the actor currently firing, stashed at
        #: fire-start so :meth:`continue_train` can detect re-admission
        #: (a drain-to-empty followed by a self-feeding emission draws a
        #: fresh, later ticket — the actor may no longer be first).
        self._firing_ticket: Optional[int] = None
        #: Earliest engine time any source could become runnable, cached
        #: by :meth:`continue_train` so mid-train source checks are one
        #: comparison instead of a scan.  Only populated for bounded
        #: sources with the stock ``source_has_work`` (see
        #: :meth:`on_initialize`); ``None`` = unknown, rescan.
        self._no_source_until: Optional[int] = None
        self._sources_cacheable = False

    # ------------------------------------------------------------------
    def on_initialize(self) -> None:
        for actor in self.actors:
            self.quantum[actor.name] = self.slice_us
            self._order[actor.name] = next(self._rotation)
        # The mid-train source-check cache is sound only when arrival
        # schedules cannot grow behind our back (no live/unbounded
        # sources) and runnability is the stock pending-arrival check.
        self._sources_cacheable = all(
            not source.unbounded for source in self.sources
        ) and (
            type(self).source_has_work is AbstractScheduler.source_has_work
        )

    # ------------------------------------------------------------------
    # Table 2: the QBS column applies to RR as well
    # ------------------------------------------------------------------
    evaluate_state = QuantumPriorityScheduler.evaluate_state

    def comparator_key(self, actor: Actor) -> Any:
        return self._order.get(actor.name, 0)

    # ------------------------------------------------------------------
    def admit(
        self,
        actor: Actor,
        queue: ReadyQueue,
        port_name: str,
        item: Window | CWEvent,
    ) -> None:
        """INACTIVE actors re-enter at the back of the round-robin queue."""
        was_empty = not queue
        queue.push(port_name, item)
        if was_empty and not actor.is_source:
            self._order[actor.name] = next(self._rotation)
            if self.quantum.get(actor.name, 0) <= 0:
                self.quantum[actor.name] = self.slice_us

    def admit_batch(
        self,
        actor: Actor,
        queue: ReadyQueue,
        port_name: str,
        items: "list[Window | CWEvent]",
    ) -> None:
        """Bulk admission; equivalent to the per-item :meth:`admit` loop.

        Only the first item of a train can find the queue empty, so the
        per-item loop would draw exactly one rotation ticket (and at most
        one slice re-grant) — done here up front, then the whole train is
        bulk-pushed.
        """
        was_empty = not queue
        queue.push_batch(port_name, items)
        if was_empty and items and not actor.is_source:
            self._order[actor.name] = next(self._rotation)
            if self.quantum.get(actor.name, 0) <= 0:
                self.quantum[actor.name] = self.slice_us

    # ------------------------------------------------------------------
    # Event-train quantum accounting
    # ------------------------------------------------------------------
    def on_actor_fire_start(self, actor: Actor, now: int) -> None:
        # ``AbstractScheduler.on_actor_fire_start`` inlined (it only
        # records the clock) — this runs once per item on the train path.
        self._now = now
        self._firing_ticket = self._order.get(actor.name)

    def continue_train(
        self, actor: Actor, spent_us: int, items: int, now: int
    ) -> bool:
        """O(1) exact replica of :meth:`get_next_actor` staying on *actor*.

        Read against the train's tally (see the base method): the
        actor's quantum is short by *spent_us* and the source-pacing
        counter by *items*.  ``True`` is returned only when every
        condition of the full selection provably yields *actor* again:

        * no source check is due (the pacing counter below the interval
          — sources can therefore not preempt, and the skipped
          ``get_next_actor`` would not have touched the source rotation);
        * the actor still holds quantum and ready work, so its state is
          ACTIVE by the Table 2 rules;
        * its rotation ticket is unchanged since fire-start — mid-train
          activations always draw *later* tickets, WAITING actors cannot
          re-activate before the period rolls over, and the actor was the
          earliest live ticket when it was dispatched, so an unchanged
          ticket keeps it first in the ready-ring.

        Anything else returns ``False`` and the director falls back to
        the authoritative ``get_next_actor``.
        """
        if actor.is_source:
            return False
        if self._internal_since_source + items >= self.source_interval:
            # A source check is due.  It returns a source iff some source
            # is ACTIVE (not yet fired this iteration, quantum left) and
            # has due work — replicate that exactly; any runnable source
            # defers to the authoritative path (which also advances the
            # source rotation).  The failing check has no side effects.
            # Within one firing period the fired-set and source quanta
            # are fixed, so a failing scan stays failing until the
            # earliest pending arrival comes due — cache that horizon
            # (bounded sources only) and re-check with one comparison.
            if not items:
                now = self._now
            until = self._no_source_until
            if until is None or now >= until:
                fired = self._fired_sources
                quantum = self.quantum
                horizon = _NEVER
                for source in self.sources:
                    if (
                        source.name in fired
                        or quantum.get(source.name, 0) <= 0
                    ):
                        continue
                    if self.source_has_work(source, now):
                        return False
                    next_due = source.next_arrival_time()
                    if next_due is not None and next_due < horizon:
                        horizon = next_due
                if self._sources_cacheable:
                    self._no_source_until = horizon
        name = actor.name
        if self.quantum.get(name, 0) <= spent_us:
            return False
        if not self.ready[name]:
            return False
        return self._order.get(name) == self._firing_ticket

    # ------------------------------------------------------------------
    def on_actor_fire_end(
        self, actor: Actor, cost_us: int, now: int, items: int = 1
    ) -> None:
        # ``AbstractScheduler.on_actor_fire_end`` inlined (clock stamp,
        # internal-firing and source-pacing counters, state
        # invalidation) — the base hook is a few plain statements.
        self._now = now
        name = actor.name
        self.quantum[name] = self.quantum.get(name, 0) - cost_us
        if actor.is_source:
            self._fired_sources.add(name)
            self._internal_since_source = 0
            # The source's fired/quantum inputs changed: the mid-train
            # no-runnable-source horizon is stale.
            self._no_source_until = None
        else:
            self.internal_firings += items
            self._internal_since_source += items
        self.state_valid[name] = False
        self._index_dirty.add(name)

    def on_iteration_end(self, now: int) -> None:
        """Period roll-over: fresh equal slices for everyone."""
        super().on_iteration_end(now)
        self.periods += 1
        if _obs.ENABLED:
            _obs._TRACER.instant("sched.period_roll", now, period=self.periods)
        for actor in self.actors:
            self.quantum[actor.name] = self.slice_us
            self.invalidate_state(actor)
        self._no_source_until = None

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def policy_state_dump(self) -> dict:
        """Add the next rotation ticket to the attribute-based dump."""
        state = super().policy_state_dump()
        state["next_ticket"] = self._rotation.__reduce__()[1][0]
        return state

    def policy_state_restore(self, state: dict) -> None:
        """Re-seed the ticket counter alongside the plain attributes."""
        super().policy_state_restore(state)
        self._rotation = itertools.count(int(state["next_ticket"]))
        self._no_source_until = None  # transient; recompute on demand

    def describe(self) -> str:
        return f"RR(slice={self.slice_us}us, src_int={self.source_interval})"

"""A FIFO (event-order) scheduler — a simple reference policy.

Not part of the paper's evaluated trio, but a useful sanity baseline for
tests and ablations: the actor holding the globally earliest ready event is
always served next (the "Event Order" scheduling of the DE taxonomy row
transplanted onto the STAFiLOS framework).  Sources are served whenever
they have due arrivals and nothing older is pending.

Under FIFO almost every firing is its own dispatch, so the index repair
is as cheap as it can be made.  An internal actor's state and key depend
on its own queue only, which cannot change between the end of its firing
and the next pick: :meth:`on_actor_fire_end` repairs its entry on the
spot.  An actor already dirty (an ``enqueue`` touched it — e.g. it fed
its own input) stays on the lazy path, and so do sources, whose state
depends on the time of the pick.  :meth:`get_next_actor` flushes those in
one inlined pass — the same states and keys ``state_of`` /
``evaluate_state`` / ``comparator_key`` would give, in the same
actor-list order.  With the engine tracer on, both take the generic
path, which emits the ``sched.state`` instants.
"""

from __future__ import annotations

from typing import Any, Optional

from ...core.actors import Actor
from ...observability import tracer as _obs
from ..abstract_scheduler import AbstractScheduler
from ..dispatch_index import INF_TIME
from ..states import ActorState

_ACTIVE = ActorState.ACTIVE
_WAITING = ActorState.WAITING
_INACTIVE = ActorState.INACTIVE


class FIFOScheduler(AbstractScheduler):
    """Globally timestamp-ordered service."""

    policy_name = "FIFO"

    def evaluate_state(self, actor: Actor) -> ActorState:
        if actor.is_source:
            if self.source_has_work(actor, self._now):
                return _ACTIVE
            return _WAITING
        if self.ready[actor.name]:
            return _ACTIVE
        return _INACTIVE

    def comparator_key(self, actor: Actor) -> Any:
        # The +inf sentinel keeps event-less actors last; ACTIVE actors
        # always hold events (or due arrivals), so it is a guard only.
        if actor.is_source:
            arrival = actor.next_arrival_time()
            return (arrival if arrival is not None else INF_TIME, 0)
        head = self.ready[actor.name].peek()
        return (head.timestamp if head is not None else INF_TIME, 1)

    def get_next_actor(self) -> Optional[Actor]:
        """The default indexed selection — FIFO ranks sources and
        internal actors together by earliest timestamp — with the
        dirty-set flush inlined."""
        index = self._index
        if index is None:  # not initialized yet
            return None
        dirty = self._index_dirty
        if dirty:
            if _obs.ENABLED:
                self._flush_index()
            else:
                order = self._actor_order
                names = (
                    sorted(dirty, key=order.__getitem__)
                    if len(dirty) > 1
                    else list(dirty)
                )
                dirty.clear()
                by_name = self._actors_by_name
                ready = self.ready
                states = self.states
                valid = self.state_valid
                update = index.update
                for name in names:
                    actor = by_name[name]
                    key = None
                    if actor.is_source:
                        if self.source_has_work(actor, self._now):
                            states[name] = _ACTIVE
                            arrival = actor.next_arrival_time()
                            key = (
                                arrival if arrival is not None else INF_TIME,
                                0,
                            )
                        else:
                            states[name] = _WAITING
                    else:
                        head = ready[name].peek()
                        if head is None:
                            states[name] = _INACTIVE
                        else:
                            states[name] = _ACTIVE
                            key = (head.sort_key[0], 1)
                    valid[name] = True
                    update(name, key, order[name])
        name = index.peek()
        if name is None:
            return self.on_active_queue_empty()
        return self._actors_by_name[name]

    def on_actor_fire_end(
        self, actor: Actor, cost_us: int, now: int, items: int = 1
    ) -> None:
        name = actor.name
        if actor.is_source or name in self._index_dirty or _obs.ENABLED:
            # Re-check a source for due arrivals next time around.
            super().on_actor_fire_end(actor, cost_us, now, items)
            return
        # ``super().on_actor_fire_end`` with the lazy re-evaluation it
        # schedules done now: the queue is final until the next pick.
        self._now = now
        self.internal_firings += items
        self._internal_since_source += items
        head = self.ready[name].peek()
        if head is None:
            self.states[name] = _INACTIVE
            key = None
        else:
            self.states[name] = _ACTIVE
            key = (head.sort_key[0], 1)
        self.state_valid[name] = True
        self._index.update(name, key, self._actor_order[name])

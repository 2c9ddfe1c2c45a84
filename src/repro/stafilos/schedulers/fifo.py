"""A FIFO (event-order) scheduler — a simple reference policy.

Not part of the paper's evaluated trio, but a useful sanity baseline for
tests and ablations: the actor holding the globally earliest ready event is
always served next (the "Event Order" scheduling of the DE taxonomy row
transplanted onto the STAFiLOS framework).  Sources are served whenever
they have due arrivals and nothing older is pending.
"""

from __future__ import annotations

from typing import Any

from ...core.actors import Actor
from ..abstract_scheduler import AbstractScheduler
from ..dispatch_index import INF_TIME
from ..states import ActorState


class FIFOScheduler(AbstractScheduler):
    """Globally timestamp-ordered service."""

    policy_name = "FIFO"

    def evaluate_state(self, actor: Actor) -> ActorState:
        if actor.is_source:
            if self.source_has_work(actor, self._now):
                return ActorState.ACTIVE
            return ActorState.WAITING
        if self.ready[actor.name]:
            return ActorState.ACTIVE
        return ActorState.INACTIVE

    def comparator_key(self, actor: Actor) -> Any:
        # The +inf sentinel keeps event-less actors last; ACTIVE actors
        # always hold events (or due arrivals), so it is a guard only.
        if actor.is_source:
            arrival = actor.next_arrival_time()
            return (arrival if arrival is not None else INF_TIME, 0)
        head = self.ready[actor.name].peek()
        return (head.timestamp if head is not None else INF_TIME, 1)

    # The default indexed ``get_next_actor`` applies as-is: FIFO ranks
    # sources and internal actors together by earliest timestamp.

    def on_actor_fire_end(
        self, actor: Actor, cost_us: int, now: int, items: int = 1
    ) -> None:
        super().on_actor_fire_end(actor, cost_us, now, items)
        if actor.is_source:
            # Re-check for due arrivals next time around.
            self.invalidate_state(actor)

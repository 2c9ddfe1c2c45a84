"""The Rate-Based Scheduler (RB).

Based on the Highest Rate scheduler of Sharaf et al. — the best-performing
continuous-query scheduler with respect to average response time.  Actor
priorities are dynamic::

    Pr(A) = S_A / C_A

where ``S_A`` is the actor's *global* selectivity and ``C_A`` its *global*
average cost, both aggregated over the downstream paths to the workflow's
outputs (summed across paths when an actor is shared, as the paper
specifies).

Event processing is divided into **periods**: events enqueued during the
current period are held in a buffer and only become processable when the
period rolls over; each source executes exactly once per period.  A period
ends at the director's end of iteration — when every actor has drained its
ready events and every source has fired.  Priorities are re-evaluated at
the end of each period from the statistics module.

Note RB deliberately does *not* single out sources for high-priority
regular scheduling — the paper attributes its weaker response times to
exactly this (tokens wait longer to enter the workflow).
"""

from __future__ import annotations

from typing import Any

from ...core.actors import Actor
from ...core.events import CWEvent
from ...core.statistics import rate_priorities
from ...core.windows import Window
from ...observability import tracer as _obs
from ..abstract_scheduler import AbstractScheduler
from ..ready import ReadyQueue
from ..states import ActorState


class RateBasedScheduler(AbstractScheduler):
    """Highest-rate-first scheduling with period-buffered admission."""

    policy_name = "RB"

    #: Mutable policy state for checkpointing; the next-period buffer
    #: holds live ``Actor`` references, so it is translated to names in
    #: :meth:`policy_state_dump` rather than captured verbatim.
    checkpoint_attrs = (
        "periods",
        "priorities",
        "_buffered_counts",
        "_fired_sources",
    )

    def __init__(self, default_cost_us: float = 100.0):
        super().__init__()
        self.default_cost_us = default_cost_us
        self.periods = 0
        self.priorities: dict[str, float] = {}
        self._next_period_buffer: list[tuple[Actor, str, Any]] = []
        self._buffered_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    def on_initialize(self) -> None:
        self._recompute_priorities()

    def _recompute_priorities(self) -> None:
        assert self.workflow is not None and self.statistics is not None
        old = self.priorities
        self.priorities = rate_priorities(
            self.workflow, self.statistics, self.default_cost_us
        )
        if not old:
            # First evaluation: every comparator key is new.
            self._mark_index_dirty_all()
            return
        # Re-key only the actors whose rate actually moved (cached states
        # stay valid either way).  In steady state most rates are stable,
        # so the per-period index repair is proportional to the churn,
        # not the actor count.
        new = self.priorities
        changed = [name for name in new if old.get(name) != new[name]]
        changed.extend(name for name in old if name not in new)
        self._index_dirty.update(changed)

    # ------------------------------------------------------------------
    # Period-buffered admission
    # ------------------------------------------------------------------
    def admit(
        self,
        actor: Actor,
        queue: ReadyQueue,
        port_name: str,
        item: Window | CWEvent,
    ) -> None:
        """Mid-period arrivals wait in the next-period buffer."""
        self._next_period_buffer.append((actor, port_name, item))
        self._buffered_counts[actor.name] = (
            self._buffered_counts.get(actor.name, 0) + 1
        )

    def buffered_for(self, actor: Actor) -> int:
        """Events held for *actor* until the period rolls over — O(1)."""
        return self._buffered_counts.get(actor.name, 0)

    # ------------------------------------------------------------------
    # Table 2: state conditions under RB
    # ------------------------------------------------------------------
    def evaluate_state(self, actor: Actor) -> ActorState:
        if actor.is_source:
            if actor.name in self._fired_sources:
                return ActorState.WAITING
            return ActorState.ACTIVE
        if self.ready[actor.name]:
            return ActorState.ACTIVE
        if self.buffered_for(actor):
            return ActorState.WAITING
        return ActorState.INACTIVE

    def comparator_key(self, actor: Actor) -> Any:
        """Highest dynamic rate first (min-key ordering, so negate)."""
        return (-self.priorities.get(actor.name, 0.0), actor.name)

    # The default indexed ``get_next_actor`` applies as-is: RB ranks
    # sources and internal actors together by dynamic rate.

    # ------------------------------------------------------------------
    def on_iteration_end(self, now: int) -> None:
        """Period roll-over: release the buffer, refresh priorities."""
        super().on_iteration_end(now)
        self.periods += 1
        buffered, self._next_period_buffer = self._next_period_buffer, []
        self._buffered_counts.clear()
        for actor, port_name, item in buffered:
            self.ready[actor.name].push(port_name, item)
            self.invalidate_state(actor)
        for source in self.sources:
            self.invalidate_state(source)
        self._recompute_priorities()
        if _obs.ENABLED:
            _obs._TRACER.instant(
                "sched.period_roll",
                now,
                period=self.periods,
                released=len(buffered),
            )

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def policy_state_dump(self) -> dict:
        """Dump the next-period buffer *by actor name*.

        A checkpoint must never serialize live engine objects: the buffer
        entries ``(Actor, port, item)`` become ``(name, port, item)`` so
        the dump restores cleanly onto a rebuilt workflow.
        """
        state = super().policy_state_dump()
        state["buffer"] = [
            (actor.name, port_name, item)
            for actor, port_name, item in self._next_period_buffer
        ]
        return state

    def policy_state_restore(self, state: dict) -> None:
        """Re-bind buffered entries to the rebuilt actors by name."""
        super().policy_state_restore(state)
        self._next_period_buffer = [
            (self._actors_by_name[name], port_name, item)
            for name, port_name, item in state["buffer"]
        ]

    def describe(self) -> str:
        return "RB(highest-rate)"

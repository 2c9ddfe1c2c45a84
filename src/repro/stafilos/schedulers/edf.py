"""An Earliest-Deadline-First scheduler — STAFiLOS extensibility demo.

The paper's pitch for STAFiLOS is that "developers of CWf applications can
easily incorporate new scheduling policies by implementing the abstract
methods".  This policy is exactly that exercise: every ready item carries
an implicit deadline — its external-event timestamp plus a per-actor
latency target — and the actor holding the earliest deadline runs next.

Latency targets default to ``default_target_us`` and tighten for
higher-priority actors (the designer's priority 5/10/20 maps to
1x/2x/4x the base target), so the workflow's output path gets the tightest
deadlines without any new configuration surface.
"""

from __future__ import annotations

from typing import Any, Optional

from ...core.actors import Actor
from ..abstract_scheduler import AbstractScheduler
from ..dispatch_index import INF_TIME
from ..states import ActorState


class EarliestDeadlineScheduler(AbstractScheduler):
    """Deadline-ordered service with priority-scaled latency targets."""

    policy_name = "EDF"

    #: Sources are interval-regulated separately; the deadline heap holds
    #: internal actors only.
    index_includes_sources = False

    #: Mutable policy state for checkpointing: the source-regulation
    #: bookkeeping (deadlines themselves derive from the ready heads).
    checkpoint_attrs = (
        "_fired_sources",
        "_internal_since_source",
        "_source_rotation",
    )

    def __init__(
        self,
        default_target_us: int = 2_000_000,
        source_interval: int = 5,
    ):
        super().__init__()
        self.default_target_us = default_target_us
        self.source_interval = source_interval

    # ------------------------------------------------------------------
    def target_us(self, actor: Actor) -> int:
        """Latency target: tighter for more urgent designer priorities."""
        if actor.priority <= 5:
            factor = 1
        elif actor.priority <= 10:
            factor = 2
        else:
            factor = 4
        return self.default_target_us * factor

    def deadline_of(self, actor: Actor) -> Optional[int]:
        head = self.ready[actor.name].peek()
        if head is None:
            return None
        return head.timestamp + self.target_us(actor)

    # ------------------------------------------------------------------
    def evaluate_state(self, actor: Actor) -> ActorState:
        if actor.is_source:
            if actor.name in self._fired_sources:
                return ActorState.WAITING
            return ActorState.ACTIVE
        if self.ready[actor.name]:
            return ActorState.ACTIVE
        return ActorState.INACTIVE

    def comparator_key(self, actor: Actor) -> Any:
        # Event-less actors sort last: "no deadline" must never beat a
        # real one (the +inf sentinel; ACTIVE actors always hold events).
        deadline = self.deadline_of(actor)
        return (deadline if deadline is not None else INF_TIME, actor.name)

    # ------------------------------------------------------------------
    def on_iteration_end(self, now: int) -> None:
        super().on_iteration_end(now)
        for actor in self.actors:
            self.invalidate_state(actor)

    def describe(self) -> str:
        return f"EDF(target={self.default_target_us}us)"

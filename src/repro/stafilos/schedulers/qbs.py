"""The Quantum Priority Based Scheduler (QBS).

Largely based on the Linux O(1) process scheduler: the workflow designer
assigns each actor a priority ``p`` and the scheduler grants quanta by the
paper's Equation 1::

    q = (40 - p) *  b      for p >= 20
    q = (40 - p) * 4b      for p <  20

where ``b`` is the *basic quantum* (a static scheduler parameter) and ``q``
is the actor's execution allowance in microseconds until the next
re-quantification.  Actors with ready events split into ACTIVE (positive
quantum) and WAITING (non-positive quantum); the active set is served in
ascending priority order, FIFO within a class.  When every actor with
events has exhausted its quantum the director's iteration ends and the
scheduler *re-quantifies*: every actor's remaining quantum is incremented
by its grant (so heavy over-runs may stay negative, and long-idle
low-priority actors accumulate allowance — the effect behind the paper's
b=5000 vs b=10000 anomaly) and the active/waiting queues swap.

Source actors are scheduled independently at regular intervals — one source
firing every ``source_interval`` internal actor invocations — to regulate
the flow of data into the workflow (Table 3 uses an interval of 5).
"""

from __future__ import annotations

from typing import Any

from ...core.actors import Actor
from ...observability import tracer as _obs
from ..abstract_scheduler import AbstractScheduler
from ..dispatch_index import INF_TIME
from ..states import ActorState


def quantum_grant(priority: int, basic_quantum_us: int) -> int:
    """Equation 1 of the paper."""
    if priority >= 20:
        return (40 - priority) * basic_quantum_us
    return (40 - priority) * 4 * basic_quantum_us


class QuantumPriorityScheduler(AbstractScheduler):
    """Priority + quantum scheduling in the style of the Linux kernel."""

    policy_name = "QBS"

    #: Sources are interval-regulated through their own rotation; only
    #: internal actors live in the dispatch index.
    index_includes_sources = False

    #: Mutable policy state captured by the checkpoint subsystem:
    #: remaining quanta, the re-quantification round, and the
    #: source-regulation bookkeeping (fired set, pacing counter, rotation
    #: cursor) — everything a resumed run needs to keep granting quanta
    #: and rotating sources exactly where the crashed run stopped.
    checkpoint_attrs = (
        "quantum",
        "requantifications",
        "_fired_sources",
        "_internal_since_source",
        "_source_rotation",
    )

    def __init__(self, basic_quantum_us: int = 500, source_interval: int = 5):
        super().__init__()
        self.basic_quantum_us = basic_quantum_us
        self.source_interval = source_interval
        self.quantum: dict[str, int] = {}
        self.requantifications = 0

    # ------------------------------------------------------------------
    def on_initialize(self) -> None:
        for actor in self.actors:
            self.quantum[actor.name] = quantum_grant(
                actor.priority, self.basic_quantum_us
            )

    # ------------------------------------------------------------------
    # Table 2: state conditions under QBS (RR shares the column)
    # ------------------------------------------------------------------
    def evaluate_state(self, actor: Actor) -> ActorState:
        quantum = self.quantum.get(actor.name, 0)
        if actor.is_source:
            # A source never becomes INACTIVE.
            if actor.name in self._fired_sources or quantum <= 0:
                return ActorState.WAITING
            return ActorState.ACTIVE
        if not self.ready[actor.name]:
            return ActorState.INACTIVE
        if quantum > 0:
            return ActorState.ACTIVE
        return ActorState.WAITING

    def comparator_key(self, actor: Actor) -> Any:
        """Ascending designer priority; FIFO (earliest event) within a class.

        An event-less actor sorts *last* within its priority class (the
        ``+inf`` sentinel): FIFO-within-class means actors holding older
        events win, and "no event" is the oldest possible claim, not the
        newest.  (ACTIVE internal actors always hold events, so this
        fallback only shows up when the key is probed externally.)
        """
        head = self.ready[actor.name].peek()
        head_time = head.timestamp if head is not None else INF_TIME
        return (actor.priority, head_time)

    # Selection is the base ``get_next_actor``: interval-regulated
    # sources + priority-ordered internals.

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def on_actor_fire_end(
        self, actor: Actor, cost_us: int, now: int, items: int = 1
    ) -> None:
        super().on_actor_fire_end(actor, cost_us, now, items)
        before = self.quantum.get(actor.name, 0)
        remaining = before - cost_us
        self.quantum[actor.name] = remaining
        if remaining <= 0 < before:
            if _obs.ENABLED:
                _obs._TRACER.instant(
                    "sched.quantum_expired",
                    now,
                    actor.name,
                    remaining_us=remaining,
                )

    def on_iteration_end(self, now: int) -> None:
        """Re-quantification: swap active/waiting by re-granting quanta."""
        super().on_iteration_end(now)
        self.requantifications += 1
        if _obs.ENABLED:
            _obs._TRACER.instant(
                "sched.requantify", now, round=self.requantifications
            )
        for actor in self.actors:
            self.quantum[actor.name] = self.quantum.get(
                actor.name, 0
            ) + quantum_grant(actor.priority, self.basic_quantum_us)
            self.invalidate_state(actor)

    def describe(self) -> str:
        return f"QBS(b={self.basic_quantum_us}us, src_int={self.source_interval})"

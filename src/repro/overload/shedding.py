"""Backlog-bounded shedding mechanics (the drop engine of the package).

The paper's §4.3 points at load shedding (DILoS / self-managing shedding,
its refs [26, 27]) as the way to satisfy SLAs under overload: when the
offered load exceeds capacity, drop work *early and deliberately* instead
of letting every queue grow without bound.

:class:`BacklogShedder` is the mechanism layer: it plugs into any
STAFiLOS scheduler's ``shedder`` slot and enforces a bound on the total
ready backlog by discarding items from the most backlogged low-priority
actors, plus an optional input-side bound at the sources.  Two strategies:

``drop-oldest``
    discard the stalest ready item (its response time is already doomed);
``drop-newest``
    discard the incoming end (keeps in-flight work's latency intact).

Actors with designer priority <= ``protect_priority`` are exempt, so the
workflow's output path keeps its QoS while best-effort maintenance work is
shed first.

The *policy* layer lives above: the closed-loop
:class:`~repro.overload.controller.OverloadController`, which retunes the
bounds here from observed latency.  Trace emission goes through the
public :func:`repro.observability.tracer.current_tracer` hook, so custom
tracer installs see every drop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..core.exceptions import SchedulerError
from ..observability import tracer as _obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..stafilos.abstract_scheduler import AbstractScheduler


@dataclass
class BacklogShedder:
    """Backlog-bounded shedding mechanism (strategy + counters)."""

    max_total_backlog: int
    strategy: str = "drop-oldest"
    #: Actors at or below this priority never lose events.
    protect_priority: int = 5
    #: When set, sources also shed: due-but-unpumped arrivals beyond this
    #: bound are discarded (input-side shedding, as in DSMS shedders).
    max_source_pending: Optional[int] = None
    dropped: int = 0
    dropped_at_sources: int = 0
    dropped_by_actor: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_total_backlog <= 0:
            raise SchedulerError("max_total_backlog must be positive")
        if self.strategy not in ("drop-oldest", "drop-newest"):
            raise SchedulerError(f"unknown strategy {self.strategy!r}")

    # ------------------------------------------------------------------
    def enforce(self, scheduler: "AbstractScheduler") -> int:
        """Shed until the total backlog is within bound; returns drops."""
        drops = 0
        while scheduler.total_backlog() > self.max_total_backlog:
            victim = self._pick_victim(scheduler)
            if victim is None:
                break  # everything left is protected
            self._drop_one(scheduler, victim)
            drops += 1
        return drops

    def shed_sources(self, scheduler: "AbstractScheduler", now: int) -> int:
        """Apply input-side shedding at every registered source."""
        if self.max_source_pending is None:
            return 0
        drops = 0
        for source in scheduler.sources:
            drops += source.shed_due(now, self.max_source_pending)
        self.dropped_at_sources += drops
        if drops:
            if _obs.ENABLED:
                _obs.current_tracer().instant(
                    "shed.sources", now, dropped=drops
                )
        return drops

    def _pick_victim(self, scheduler: "AbstractScheduler") -> Optional[str]:
        """The most backlogged sheddable actor's name."""
        worst_name = None
        worst_backlog = 0
        for actor in scheduler.actors:
            if actor.priority <= self.protect_priority:
                continue
            backlog = len(scheduler.ready[actor.name])
            if backlog > worst_backlog:
                worst_backlog = backlog
                worst_name = actor.name
        return worst_name

    def _drop_one(self, scheduler: "AbstractScheduler", name: str) -> None:
        queue = scheduler.ready[name]
        if self.strategy == "drop-oldest":
            queue.pop()
        else:
            # Drop the newest: rebuild without the max-key item.  Ready
            # queues are small heaps; this stays O(n).
            items = []
            while queue:
                items.append(queue.pop())
            if items:
                items.pop()  # the newest (pops were oldest-first)
            for item in items:
                queue.push(item.port_name, item.item)
        self.dropped += 1
        self.dropped_by_actor[name] = self.dropped_by_actor.get(name, 0) + 1
        actor = next(a for a in scheduler.actors if a.name == name)
        scheduler.invalidate_state(actor)
        if _obs.ENABLED:
            _obs.current_tracer().instant(
                "shed.drop",
                scheduler._now,
                name,
                strategy=self.strategy,
                backlog=scheduler.total_backlog(),
            )

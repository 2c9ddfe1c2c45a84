"""Stream operators: incremental compensated sliding aggregates.

The paper's push sources — actors that "pump" data pushed at them "into
the workflow's internal ports at a rate which is dictated by the
director's execution model" (§2.2) — are
:class:`~repro.core.actors.SourceActor` itself: arrivals are handed to it
with ``feed`` and the director pumps them out on its own schedule.
What this package adds is the §4.3 operator: :class:`SlidingAggregate`
and the :class:`IncrementalAggActor` built on it.
"""

from .aggregates import IncrementalAggActor, SlidingAggregate

__all__ = [
    "IncrementalAggActor",
    "SlidingAggregate",
]

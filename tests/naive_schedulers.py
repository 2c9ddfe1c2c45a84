"""Naive scan-based reference schedulers (the pre-index selection code).

These subclasses reproduce, verbatim, the historical O(A) selection each
policy used before the incrementally maintained dispatch index landed:
scan the actor list, filter ACTIVE via ``state_of`` (lazy re-evaluation
and all), and pick ``min(candidates, key=self.comparator_key)``.  The
interval-regulated source rotation of QBS/RR/EDF is kept here as the
historical copy too, so the oracle shares no selection code with the
shipped ``AbstractScheduler.get_next_actor``.

They exist solely as the oracle for ``test_dispatch_index.py``: the
indexed ``get_next_actor()`` must produce the **identical** dispatch
sequence (tie-breaking included) across random workflows, policies, and
seeds.  Keep them byte-for-byte dumb; any cleverness here defeats the
point of the oracle.
"""

from __future__ import annotations

from typing import Optional

from repro.core.actors import Actor
from repro.stafilos.abstract_scheduler import AbstractScheduler
from repro.stafilos.schedulers.edf import EarliestDeadlineScheduler
from repro.stafilos.schedulers.fifo import FIFOScheduler
from repro.stafilos.schedulers.qbs import QuantumPriorityScheduler
from repro.stafilos.schedulers.rb import RateBasedScheduler
from repro.stafilos.schedulers.rr import RoundRobinScheduler
from repro.stafilos.states import ActorState


class _ScanSelectionMixin:
    """Historical default: min-key over every ACTIVE actor."""

    def get_next_actor(self) -> Optional[Actor]:
        candidates = [
            actor
            for actor in self.actors
            if self.state_of(actor) is ActorState.ACTIVE
        ]
        if not candidates:
            return self.on_active_queue_empty()
        return min(candidates, key=self.comparator_key)


class _ScanInternalsMixin:
    """Historical QBS/RR/EDF shape: scan internals + rotated sources."""

    def get_next_actor(self) -> Optional[Actor]:
        internals = [
            actor
            for actor in self.actors
            if not actor.is_source
            and self.state_of(actor) is ActorState.ACTIVE
        ]
        source_due = (
            self._internal_since_source >= self.source_interval
            or not internals
        )
        if source_due:
            source = self._next_runnable_source()
            if source is not None:
                return source
        if internals:
            return min(internals, key=self.comparator_key)
        return None

    def _next_runnable_source(self):
        """The oracle's own copy of the source rotation (the shipped one
        lives on ``AbstractScheduler``, beside the selection it serves)."""
        count = len(self.sources)
        for offset in range(count):
            source = self.sources[(self._source_rotation + offset) % count]
            if (
                self.state_of(source) is ActorState.ACTIVE
                and self.source_has_work(source, self._now)
            ):
                self._source_rotation = (
                    self._source_rotation + offset + 1
                ) % count
                return source
        return None


class NaiveQBS(_ScanInternalsMixin, QuantumPriorityScheduler):
    policy_name = "QBS-naive"


class NaiveRR(_ScanInternalsMixin, RoundRobinScheduler):
    policy_name = "RR-naive"


class NaiveEDF(_ScanInternalsMixin, EarliestDeadlineScheduler):
    policy_name = "EDF-naive"


class NaiveRB(_ScanSelectionMixin, RateBasedScheduler):
    policy_name = "RB-naive"


class NaiveFIFO(_ScanSelectionMixin, FIFOScheduler):
    policy_name = "FIFO-naive"
    # The historical fire-end hook: the fired actor's state is left for
    # the next scan to re-evaluate, not repaired on the spot.
    on_actor_fire_end = AbstractScheduler.on_actor_fire_end


#: (indexed, naive) policy factory pairs for the oracle test and the
#: scaling benchmark.  Factories take no arguments — they bake in the
#: defaults so both sides of a comparison are configured identically.
POLICY_PAIRS = {
    "QBS": (QuantumPriorityScheduler, NaiveQBS),
    "RR": (RoundRobinScheduler, NaiveRR),
    "EDF": (EarliestDeadlineScheduler, NaiveEDF),
    "RB": (RateBasedScheduler, NaiveRB),
    "FIFO": (FIFOScheduler, NaiveFIFO),
}

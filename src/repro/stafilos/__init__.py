"""STAFiLOS: STreAm FLOw Scheduling for Continuous Workflows.

The pluggable scheduling framework of CONFLuEnCE, composed of three main
components (Figure 3 of the paper):

* the :class:`~repro.stafilos.scwf_director.SCWFDirector` — the
  schedule-independent Scheduled CWF director;
* the :class:`~repro.stafilos.tm_receiver.TMWindowedReceiver` — windowed
  receivers that enqueue produced windows at the director's per-actor
  ready queues;
* the :class:`~repro.stafilos.abstract_scheduler.AbstractScheduler` — the
  extension point concrete policies implement.

Policies live in :mod:`repro.stafilos.schedulers`.
"""

from .abstract_scheduler import AbstractScheduler
from .ready import ReadyItem, ReadyQueue
from .schedulers import (
    EarliestDeadlineScheduler,
    FIFOScheduler,
    QuantumPriorityScheduler,
    quantum_grant,
    RateBasedScheduler,
    RoundRobinScheduler,
)
from .scwf_director import SCWFDirector
from .states import ActorState
from .tm_receiver import TMWindowedReceiver

__all__ = [
    "AbstractScheduler",
    "ActorState",
    "EarliestDeadlineScheduler",
    "FIFOScheduler",
    "QuantumPriorityScheduler",
    "quantum_grant",
    "RateBasedScheduler",
    "ReadyItem",
    "ReadyQueue",
    "RoundRobinScheduler",
    "SCWFDirector",
    "TMWindowedReceiver",
]

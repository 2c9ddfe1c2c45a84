"""Concrete STAFiLOS scheduling policies.

The paper's three case studies — Quantum Priority Based (QBS), Round Robin
(RR) and Rate Based (RB) — plus a FIFO event-order reference policy used by
tests and ablations.
"""

from .edf import EarliestDeadlineScheduler
from .fifo import FIFOScheduler
from .qbs import QuantumPriorityScheduler, quantum_grant
from .rb import RateBasedScheduler
from .rr import RoundRobinScheduler

__all__ = [
    "EarliestDeadlineScheduler",
    "FIFOScheduler",
    "QuantumPriorityScheduler",
    "quantum_grant",
    "RateBasedScheduler",
    "RoundRobinScheduler",
]

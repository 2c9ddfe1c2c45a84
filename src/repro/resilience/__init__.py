"""Fault-tolerant continuous execution: supervision, retries, dead letters.

A continuous workflow is always active, so a single poison event must
never silently stall the engine.  This package is the engine-wide
resilience subsystem wired through **both** execution models (the
scheduled SCWF director and the thread-based PNCWF director, live and
simulated):

* :class:`~repro.resilience.policy.FaultPolicy` — declarative recovery
  behaviour: retries with exponential backoff in *engine time*, a
  per-actor error budget (circuit breaker) that quarantines an actor
  after N consecutive exhausted failures, and a bounded dead-letter
  queue;
* :class:`~repro.resilience.supervisor.FaultSupervisor` — the stateful
  runtime every director delegates failures to: per-actor health,
  quarantine decisions, the dead-letter queue, and the resilience trace
  events (``actor.retry``, ``actor.quarantined``, ``deadletter.enqueued``)
  plus failure/retry/dead-letter counters in
  :meth:`repro.core.statistics.StatisticsRegistry.snapshot`;
* :class:`~repro.resilience.deadletter.DeadLetterQueue` — bounded capture
  of the triggering item + exception metadata for every exhausted failure;
* :class:`~repro.resilience.injection.FaultInjector` — deterministic,
  seeded fault injection (CLI: ``--inject-faults SPEC``) so chaos runs
  are bit-reproducible under the virtual clock.

Quick example::

    from repro import FaultPolicy, SCWFDirector

    director = SCWFDirector(
        scheduler, clock, cost_model,
        error_policy=FaultPolicy(max_retries=2, error_budget=5),
    )
    ...
    for letter in director.supervisor.dead_letters:
        print(letter.describe())
"""

from .deadletter import DeadLetter, DeadLetterQueue
from .injection import (
    FaultInjector,
    FaultSpec,
    install_faults,
    parse_fault_spec,
)
from .policy import FailureAction, FailureDecision, FaultPolicy
from .replay import replay_dead_letters
from .supervisor import ActorHealth, FaultSupervisor

__all__ = [
    "ActorHealth",
    "DeadLetter",
    "DeadLetterQueue",
    "FailureAction",
    "FailureDecision",
    "FaultInjector",
    "FaultPolicy",
    "FaultSpec",
    "FaultSupervisor",
    "install_faults",
    "parse_fault_spec",
    "replay_dead_letters",
]

"""Fault policies: declarative recovery behaviour for failed firings.

A continuous workflow is *always active*: a single poison event must never
silently stall the engine.  :class:`FaultPolicy` is the declarative object
both execution models (the scheduled SCWF director and the thread-based
PNCWF director) consult whenever an actor firing raises:

* **retries** — a failed firing is replayed up to ``max_retries`` times
  with exponential backoff charged in *engine time* (virtual microseconds
  under the simulation clock, scaled wall time under the live director),
  so chaos runs remain deterministic;
* **error budget / circuit breaker** — after ``error_budget`` consecutive
  exhausted failures the actor is *quarantined*: subsequent items bypass
  the actor and flow straight to the dead-letter queue;
* **dead-letter queue** — every exhausted failure captures the triggering
  item plus exception metadata in a bounded
  :class:`~repro.resilience.deadletter.DeadLetterQueue`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..core.exceptions import ResilienceError

class FailureAction(Enum):
    """What a director should do with a failed firing."""

    #: Replay the same triggering item after ``backoff_us`` of engine time.
    RETRY = "retry"
    #: Give up on the item: it has been captured in the dead-letter queue.
    DEAD_LETTER = "dead_letter"
    #: Re-raise the exception to the caller (fail-stop).
    PROPAGATE = "propagate"


@dataclass(frozen=True)
class FailureDecision:
    """The supervisor's verdict on one failed attempt."""

    action: FailureAction
    #: Engine-time delay before the retry (only for :attr:`FailureAction.RETRY`).
    backoff_us: int = 0
    #: True when this failure tripped the actor's circuit breaker.
    quarantined: bool = False


@dataclass(frozen=True)
class FaultPolicy:
    """Recovery configuration shared by all continuous-workflow directors.

    The default policy (``FaultPolicy()``): no retries, no circuit
    breaker, every failed firing consumed and captured in the dead-letter
    queue.
    """

    #: Replays of a failed firing before giving up (0 = no retries).
    max_retries: int = 0
    #: First-retry backoff in engine-time microseconds.
    backoff_base_us: int = 1_000
    #: Multiplier applied to the backoff on every further retry.
    backoff_factor: float = 2.0
    #: Upper bound on a single backoff delay.
    backoff_max_us: int = 1_000_000
    #: Consecutive exhausted failures before the actor is quarantined;
    #: ``None`` disables the circuit breaker.
    error_budget: Optional[int] = None
    #: Bound on retained dead letters (oldest evicted beyond it).
    dead_letter_capacity: int = 1_024
    #: Fail-stop: re-raise instead of dead-lettering once retries exhaust.
    propagate: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ResilienceError("max_retries must be >= 0")
        if self.backoff_base_us < 0:
            raise ResilienceError("backoff_base_us must be >= 0")
        if self.backoff_factor < 1.0:
            raise ResilienceError("backoff_factor must be >= 1.0")
        if self.error_budget is not None and self.error_budget <= 0:
            raise ResilienceError("error_budget must be positive or None")
        if self.dead_letter_capacity <= 0:
            raise ResilienceError("dead_letter_capacity must be positive")

    # ------------------------------------------------------------------
    @classmethod
    def coerce(cls, value: Optional["FaultPolicy"]) -> "FaultPolicy":
        """*value* itself, or the default policy for ``None``."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        raise ResilienceError(
            f"cannot coerce {type(value).__name__} into a FaultPolicy"
        )

    @classmethod
    def resilient(
        cls,
        max_retries: int = 2,
        error_budget: Optional[int] = 10,
        **overrides,
    ) -> "FaultPolicy":
        """A sensible keep-running policy for chaos/fault-injection runs."""
        return cls(
            max_retries=max_retries, error_budget=error_budget, **overrides
        )

    # ------------------------------------------------------------------
    def backoff_us_for(self, attempt: int) -> int:
        """Engine-time backoff before retry *attempt* (1-based)."""
        if attempt <= 0:
            return 0
        delay = self.backoff_base_us * self.backoff_factor ** (attempt - 1)
        return int(min(delay, self.backoff_max_us))

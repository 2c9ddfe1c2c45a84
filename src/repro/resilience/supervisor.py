"""The fault supervisor: per-actor failure state shared by all directors.

The supervisor is the stateful runtime counterpart of the declarative
:class:`~repro.resilience.policy.FaultPolicy`.  Directors delegate every
failed firing to :meth:`FaultSupervisor.on_failure` and act on the
returned :class:`~repro.resilience.policy.FailureDecision`; the
supervisor owns everything that must survive across firings:

* per-actor health (failure counts, consecutive-failure streaks, retry
  totals, quarantine flags, thread restarts);
* the engine-wide :class:`~repro.resilience.deadletter.DeadLetterQueue`;
* the resilience trace events (``actor.retry``, ``actor.quarantined``,
  ``deadletter.enqueued``) and the failure/retry/dead-letter counters in
  the runtime :class:`~repro.core.statistics.StatisticsRegistry`.

Both execution models share this one class, so poison events behave
identically under the scheduled SCWF director, the simulated thread-based
baseline and the live PNCWF thread-per-actor engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..core.exceptions import ActorQuarantinedError
from ..observability import tracer as _obs
from .deadletter import DeadLetter, DeadLetterQueue
from .policy import FailureAction, FailureDecision, FaultPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.actors import Actor
    from ..core.statistics import StatisticsRegistry


class ActorHealth:
    """Mutable per-actor failure bookkeeping."""

    __slots__ = (
        "failures",
        "retries",
        "dead_letters",
        "consecutive_failures",
        "quarantined",
        "thread_restarts",
        "last_error",
    )

    def __init__(self) -> None:
        #: Failed firing attempts (every raise, including retried ones).
        self.failures = 0
        #: Retries granted by the policy.
        self.retries = 0
        #: Items dead-lettered for this actor.
        self.dead_letters = 0
        #: Exhausted failures since the last success (circuit-breaker input).
        self.consecutive_failures = 0
        #: True once the error budget is spent; cleared by ``reset``.
        self.quarantined = False
        #: Times a supervising director restarted this actor's thread loop.
        self.thread_restarts = 0
        #: ``repr`` of the most recent exception, for summaries.
        self.last_error: Optional[str] = None

    def as_dict(self) -> dict[str, Any]:
        """A JSON-friendly view (director stop reports, CLI summaries)."""
        return {
            "failures": self.failures,
            "retries": self.retries,
            "dead_letters": self.dead_letters,
            "consecutive_failures": self.consecutive_failures,
            "quarantined": self.quarantined,
            "thread_restarts": self.thread_restarts,
            "last_error": self.last_error,
        }

    def state_restore(self, state: dict[str, Any]) -> None:
        """Re-apply an :meth:`as_dict`-shaped record (Checkpointable)."""
        self.failures = state["failures"]
        self.retries = state["retries"]
        self.dead_letters = state["dead_letters"]
        self.consecutive_failures = state["consecutive_failures"]
        self.quarantined = state["quarantined"]
        self.thread_restarts = state["thread_restarts"]
        self.last_error = state["last_error"]

    #: ``as_dict`` doubles as the Checkpointable dump — it already covers
    #: every mutable field with plain picklable values.
    state_dump = as_dict


class FaultSupervisor:
    """Applies a :class:`FaultPolicy` to every failure a director reports."""

    def __init__(
        self,
        policy: Optional[FaultPolicy] = None,
        statistics: Optional["StatisticsRegistry"] = None,
    ):
        self.policy = FaultPolicy.coerce(policy)
        self.statistics = statistics
        self.dead_letters = DeadLetterQueue(self.policy.dead_letter_capacity)
        self._health: dict[str, ActorHealth] = {}

    # ------------------------------------------------------------------
    # Health access
    # ------------------------------------------------------------------
    def health(self, actor_name: str) -> ActorHealth:
        """The (auto-created) health record for *actor_name*."""
        record = self._health.get(actor_name)
        if record is None:
            record = self._health[actor_name] = ActorHealth()
        return record

    @property
    def records(self) -> dict[str, ActorHealth]:
        """The live ``{actor name: health record}`` map — empty until
        some actor fails, so a firing loop can skip the per-item
        quarantine and streak checks with one truth test."""
        return self._health

    def is_quarantined(self, actor_name: str) -> bool:
        """True when the actor's circuit breaker is open."""
        record = self._health.get(actor_name)
        return record is not None and record.quarantined

    def reset(self, actor_name: str) -> None:
        """Close the actor's circuit breaker and clear its streak."""
        record = self._health.get(actor_name)
        if record is not None:
            record.quarantined = False
            record.consecutive_failures = 0

    def error_summary(self) -> dict[str, dict[str, Any]]:
        """Per-actor failure summaries for actors that ever failed."""
        return {
            name: record.as_dict()
            for name, record in sorted(self._health.items())
        }

    def dead_letter_counts(self) -> dict[str, int]:
        """``{actor name: items dead-lettered}`` for actors that lost any."""
        return {
            name: record.dead_letters
            for name, record in self._health.items()
            if record.dead_letters
        }

    @property
    def total_failures(self) -> int:
        """Failed firing attempts across every actor."""
        return sum(record.failures for record in self._health.values())

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot health records + the dead-letter queue (Checkpointable).

        The policy itself is structural configuration (frozen dataclass,
        rebuilt with the director); only the runtime bookkeeping — per
        actor quarantine/budget state and the captured poison items — is
        part of the snapshot.
        """
        return {
            "health": {
                name: record.state_dump()
                for name, record in self._health.items()
            },
            "dead_letters": self.dead_letters.state_dump(),
        }

    def state_restore(self, state: dict) -> None:
        """Re-apply a dump onto the rebuilt supervisor (Checkpointable)."""
        for name, record_state in state["health"].items():
            self.health(name).state_restore(record_state)
        self.dead_letters.state_restore(state["dead_letters"])

    # ------------------------------------------------------------------
    # Director-facing protocol
    # ------------------------------------------------------------------
    def on_success(self, actor: "Actor") -> None:
        """A firing completed: close the actor's failure streak."""
        record = self._health.get(actor.name)
        if record is not None:
            record.consecutive_failures = 0

    def on_failure(
        self,
        actor: "Actor",
        port_name: Optional[str],
        item: Any,
        error: BaseException,
        attempt: int,
        now_us: int,
    ) -> FailureDecision:
        """Classify one failed attempt (*attempt* is 1-based).

        Records the failure, then decides: retry (with engine-time
        backoff) while the retry budget lasts, propagate when the policy
        is fail-stop, otherwise dead-letter the item — possibly tripping
        the actor's circuit breaker.
        """
        policy = self.policy
        record = self.health(actor.name)
        record.failures += 1
        record.last_error = f"{type(error).__name__}: {error}"
        if self.statistics is not None:
            self.statistics.record_failure(actor)
        if attempt <= policy.max_retries:
            record.retries += 1
            backoff = policy.backoff_us_for(attempt)
            if self.statistics is not None:
                self.statistics.record_retry(actor)
            if _obs.ENABLED:
                _obs._TRACER.instant(
                    "actor.retry",
                    now_us,
                    actor.name,
                    attempt=attempt,
                    backoff_us=backoff,
                    error=type(error).__name__,
                )
            return FailureDecision(FailureAction.RETRY, backoff_us=backoff)
        if policy.propagate:
            return FailureDecision(FailureAction.PROPAGATE)
        record.consecutive_failures += 1
        quarantined = False
        if (
            policy.error_budget is not None
            and not record.quarantined
            and record.consecutive_failures >= policy.error_budget
        ):
            record.quarantined = True
            quarantined = True
            if _obs.ENABLED:
                _obs._TRACER.instant(
                    "actor.quarantined",
                    now_us,
                    actor.name,
                    consecutive_failures=record.consecutive_failures,
                    budget=policy.error_budget,
                )
        self._enqueue_dead_letter(
            actor, port_name, item, error, attempt, now_us, quarantined=False
        )
        return FailureDecision(
            FailureAction.DEAD_LETTER, quarantined=quarantined
        )

    def drop_quarantined(
        self,
        actor: "Actor",
        port_name: Optional[str],
        item: Any,
        now_us: int,
    ) -> DeadLetter:
        """Route an item around an open circuit straight to dead letters."""
        error = ActorQuarantinedError(
            f"actor {actor.name!r} is quarantined; item bypassed execution"
        )
        return self._enqueue_dead_letter(
            actor, port_name, item, error, 0, now_us, quarantined=True
        )

    def on_thread_restart(
        self, actor: "Actor", error: BaseException, now_us: int
    ) -> int:
        """A supervised director restarted the actor's crashed thread loop."""
        record = self.health(actor.name)
        record.thread_restarts += 1
        record.last_error = f"{type(error).__name__}: {error}"
        if _obs.ENABLED:
            _obs._TRACER.instant(
                "actor.thread_restarted",
                now_us,
                actor.name,
                restarts=record.thread_restarts,
                error=type(error).__name__,
            )
        return record.thread_restarts

    # ------------------------------------------------------------------
    def _enqueue_dead_letter(
        self,
        actor: "Actor",
        port_name: Optional[str],
        item: Any,
        error: BaseException,
        attempts: int,
        now_us: int,
        quarantined: bool,
    ) -> DeadLetter:
        record = self.health(actor.name)
        record.dead_letters += 1
        letter = DeadLetter(
            actor=actor.name,
            port=port_name,
            item=item,
            error_type=type(error).__name__,
            error_message=str(error),
            attempts=max(attempts, 1),
            timestamp_us=now_us,
            quarantined=quarantined,
        )
        self.dead_letters.append(letter)
        if self.statistics is not None:
            self.statistics.record_dead_letter(actor)
        if _obs.ENABLED:
            _obs._TRACER.instant(
                "deadletter.enqueued",
                now_us,
                actor.name,
                error=letter.error_type,
                attempts=letter.attempts,
                quarantined=quarantined,
                depth=len(self.dead_letters),
            )
        return letter

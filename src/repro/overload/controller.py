"""The closed-loop overload controller: admission + backpressure + shedding.

:class:`OverloadController` composes the three mechanisms a
:class:`~repro.overload.qos.QoSPolicy` configures into one feedback loop
driven entirely by engine time:

* **admission** — one :class:`~repro.overload.bucket.TokenBucket` per
  source smooths bursts at the door; the scheduler treats a token-starved
  source as not-runnable and the idle fast-forward path jumps the clock
  straight to the next refill instant;
* **backpressure** — when the total ready backlog crosses the pause
  watermark, source pumping stops (queue-based load leveling) and resumes
  below the hysteresis watermark, so queues stay bounded without loss;
* **adaptive shedding** — every control period the loop reads the
  latency probe's new samples (p99) and the backlog slope, then retunes
  the :class:`~repro.overload.shedding.BacklogShedder` bounds and the
  scheduler quantum (AIMD: multiplicative tighten on SLO violation,
  additive relax when healthy).

The controller plugs into the exact hook points a bare
``BacklogShedder`` uses — it *is* a duck-typed shedder (``enforce``/``shed_sources`` plus
the ``dropped*`` counters) assigned to ``scheduler.shedder``, and
additionally registers as the scheduler's ``admission_gate`` and the
director's ``overload`` component.  Every decision is a pure function of
engine time and engine state, so seeded runs remain bit-reproducible, and
the whole control state checkpoints through the ``Checkpointable``
protocol (the snapshot orchestrator captures it as the director's
``overload`` component).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..core.exceptions import SchedulerError
from ..observability import tracer as _obs
from .bucket import TokenBucket
from .qos import QoSPolicy
from .shedding import BacklogShedder

US_PER_S = 1_000_000

#: The loop regulates p99 toward this fraction of the SLO, not the SLO
#: itself: AIMD oscillates around its setpoint, so steering at the raw
#: objective would leave half the oscillation above it.  A 20% control
#: margin keeps the peaks inside the deadline.
CONTROL_MARGIN = 0.8


class OverloadController:
    """Engine-time feedback loop enforcing a :class:`QoSPolicy`.

    Build one per director, then :meth:`install` it::

        controller = OverloadController(policy)
        controller.install(director)          # or director.apply_qos(policy)

    The controller then rides the scheduler's iteration-start hook (the
    same place ``BacklogShedder.shed_sources`` runs): it refreshes the
    backpressure state, applies input-side shedding and, once per control
    period, evaluates the SLO loop.
    """

    def __init__(self, policy: QoSPolicy):
        if not isinstance(policy, QoSPolicy):
            raise SchedulerError(
                f"OverloadController needs a QoSPolicy, got {policy!r}"
            )
        self.policy = policy
        # ---- shedding mechanism (bounds are the *dynamic* state) -----
        bound = policy.max_total_backlog
        if bound is None and policy.latency_slo_s is not None:
            bound = policy.max_backlog_bound
        self._shedder: Optional[BacklogShedder] = (
            None
            if bound is None and policy.max_source_pending is None
            else BacklogShedder(
                max_total_backlog=(
                    bound if bound is not None else 2**62
                ),
                strategy=policy.shed_strategy,
                protect_priority=policy.protect_priority,
                max_source_pending=policy.max_source_pending,
            )
        )
        #: Whether a finite ready-backlog bound is currently enforced.
        self._backlog_bounded = bound is not None
        # ---- admission state -----------------------------------------
        self._buckets: dict[str, TokenBucket] = {}
        # ---- backpressure state --------------------------------------
        self.paused = False
        self.pauses = 0
        self.backlog_peak = 0
        # ---- control-loop state --------------------------------------
        self.ticks = 0
        self.last_p99_s: Optional[float] = None
        self._last_tick_us: Optional[int] = None
        self._last_backlog = 0
        self._probe_cursor = 0
        self._latency_probe: Optional[Callable[[], list]] = None
        # ---- wiring (set by install) ---------------------------------
        self._scheduler: Any = None
        self._base_quantum_us: Optional[int] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(self, director: Any) -> "OverloadController":
        """Attach to *director* at the scheduler's shedding hook points.

        Registers as ``scheduler.shedder`` (shedding + the per-iteration
        control tick), ``scheduler.admission_gate`` (source runnability)
        and ``director.overload`` (pump capping, idle fast-forward and
        checkpointing).  Returns ``self`` for chaining.
        """
        scheduler = getattr(director, "scheduler", None)
        if scheduler is None:
            raise SchedulerError(
                "OverloadController requires a director with a STAFiLOS "
                f"scheduler; {type(director).__name__} has none"
            )
        self._scheduler = scheduler
        scheduler.shedder = self
        scheduler.admission_gate = self
        director.overload = self
        self._base_quantum_us = self._read_quantum()
        return self

    def attach_latency_probe(
        self, probe: Callable[[], list]
    ) -> "OverloadController":
        """Register the response-time sample feed the SLO loop reads.

        *probe* returns the cumulative ``(engine_time_us, response_us)``
        sample list of the observed sink (e.g. a
        :class:`~repro.core.actors.SinkActor`'s ``response_times_us``);
        each tick consumes only the samples appended since the last one.
        """
        self._latency_probe = probe
        return self

    # ------------------------------------------------------------------
    # BacklogShedder-compatible surface (duck-typed shedder protocol)
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Ready-queue events dropped so far (shedder counter)."""
        return 0 if self._shedder is None else self._shedder.dropped

    @property
    def dropped_at_sources(self) -> int:
        """Arrivals shed at the sources so far (shedder counter)."""
        return 0 if self._shedder is None else self._shedder.dropped_at_sources

    @property
    def dropped_by_actor(self) -> dict:
        """Per-actor drop counts (shedder counter)."""
        return {} if self._shedder is None else self._shedder.dropped_by_actor

    @property
    def backlog_bound(self) -> Optional[int]:
        """The currently enforced total-backlog bound (None = unbounded)."""
        if self._shedder is None or not self._backlog_bounded:
            return None
        return self._shedder.max_total_backlog

    def enforce(self, scheduler: Any) -> int:
        """Post-admission hook: shed down to the current dynamic bound."""
        if self._shedder is None or not self._backlog_bounded:
            return 0
        drops = self._shedder.enforce(scheduler)
        if drops:
            # Keep the exported counters fresh even when the last drops
            # of a run happen here, after the final iteration-start hook.
            self._publish_counters(scheduler)
        return drops

    def shed_sources(self, scheduler: Any, now: int) -> int:
        """Iteration-start hook: input shedding + the control tick.

        Runs exactly where a bare shedder runs, so with only the
        shedding group configured the drop sequence is identical to a
        ``BacklogShedder`` with the same bounds.
        """
        drops = 0
        if self._shedder is not None:
            drops = self._shedder.shed_sources(scheduler, now)
        backlog = scheduler.total_backlog()
        if backlog > self.backlog_peak:
            self.backlog_peak = backlog
        self._update_backpressure(backlog, now)
        self._maybe_tick(scheduler, backlog, now)
        self._publish_counters(scheduler)
        return drops

    # ------------------------------------------------------------------
    # Admission gate (consulted by scheduler + director)
    # ------------------------------------------------------------------
    def pump_allowance(self, source: Any, now: int) -> Optional[int]:
        """How many events *source* may pump at *now*.

        ``None`` means unlimited; ``0`` makes the source not-runnable
        (backpressure pause, or an empty token bucket).
        """
        if self.paused:
            return 0
        if self.policy.admission_rate is None:
            return None
        return self._bucket_for(source).available(now)

    def note_pumped(self, source: Any, emitted: int) -> None:
        """Charge *emitted* admissions against the source's bucket."""
        if emitted and self.policy.admission_rate is not None:
            self._bucket_for(source).consume(emitted)

    def earliest_admission(self, source: Any, arrival_us: int) -> int:
        """Adjust an arrival time for token availability (idle jumps).

        The runtime's fast-forward path must not jump to an arrival the
        bucket would refuse — that would nudge the clock 1 µs at a time.
        Backpressure needs no adjustment here: a paused engine has ready
        backlog, so it is never idle.
        """
        if self.policy.admission_rate is None:
            return arrival_us
        return max(
            arrival_us, self._bucket_for(source).next_token_time(arrival_us)
        )

    def _bucket_for(self, source: Any) -> TokenBucket:
        bucket = self._buckets.get(source.name)
        if bucket is None:
            bucket = TokenBucket(
                self.policy.admission_rate, self.policy.burst_capacity
            )
            self._buckets[source.name] = bucket
        return bucket

    # ------------------------------------------------------------------
    # Backpressure
    # ------------------------------------------------------------------
    def _update_backpressure(self, backlog: int, now: int) -> None:
        bound = self.policy.max_ready_backlog
        if bound is None:
            return
        if not self.paused:
            if backlog > bound:
                self.paused = True
                self.pauses += 1
                if _obs.ENABLED:
                    _obs.current_tracer().instant(
                        "overload.pause", now, backlog=backlog, bound=bound
                    )
        elif backlog <= int(bound * self.policy.resume_fraction):
            self.paused = False
            if _obs.ENABLED:
                _obs.current_tracer().instant(
                    "overload.resume", now, backlog=backlog
                )

    # ------------------------------------------------------------------
    # The adaptive control loop
    # ------------------------------------------------------------------
    def _maybe_tick(self, scheduler: Any, backlog: int, now: int) -> None:
        period_us = int(self.policy.control_period_s * US_PER_S)
        if self._last_tick_us is None:
            self._last_tick_us = now
            self._last_backlog = backlog
            return
        if now - self._last_tick_us < period_us:
            return
        slope = backlog - self._last_backlog
        p99_s = self._probe_p99()
        if p99_s is not None:
            self.last_p99_s = p99_s
        if self.policy.latency_slo_s is not None:
            self._adapt(scheduler, p99_s, slope, backlog)
        self.ticks += 1
        self._last_tick_us = now
        self._last_backlog = backlog
        if _obs.ENABLED:
            _obs.current_tracer().instant(
                "overload.tick",
                now,
                p99_s=p99_s,
                backlog=backlog,
                slope=slope,
                bound=self.backlog_bound,
                paused=self.paused,
            )

    def _probe_p99(self) -> Optional[float]:
        """p99 response time (seconds) of the samples since the last tick."""
        if self._latency_probe is None:
            return None
        samples = self._latency_probe()
        fresh = samples[self._probe_cursor :]
        self._probe_cursor = len(samples)
        if not fresh:
            return None
        responses = sorted(response_us for _, response_us in fresh)
        index = int(0.99 * (len(responses) - 1))
        return responses[index] / US_PER_S

    def _adapt(
        self,
        scheduler: Any,
        p99_s: Optional[float],
        slope: int,
        backlog: int,
    ) -> None:
        """One AIMD step toward the latency SLO."""
        policy = self.policy
        slo = policy.latency_slo_s
        if p99_s is not None:
            overloaded = p99_s > CONTROL_MARGIN * slo
            healthy = p99_s <= 0.5 * slo and slope <= 0
        else:
            # No fresh latency samples: steer on backlog slope alone.
            overloaded = slope > 0 and backlog > policy.min_backlog_bound
            healthy = slope <= 0 and backlog <= policy.min_backlog_bound
        if overloaded:
            self._tighten(scheduler)
        elif healthy:
            self._relax(scheduler)

    def _tighten(self, scheduler: Any) -> None:
        policy = self.policy
        shedder = self._require_shedder()
        # Multiplicative decrease of the dynamic backlog bound.
        current = (
            shedder.max_total_backlog
            if self._backlog_bounded
            else policy.max_backlog_bound
        )
        shedder.max_total_backlog = max(policy.min_backlog_bound, current // 2)
        self._backlog_bounded = True
        shedder.enforce(scheduler)
        # Tighten the input-side bound toward its floor.
        if shedder.max_source_pending is not None:
            shedder.max_source_pending = max(
                policy.min_source_pending, shedder.max_source_pending // 2
            )
        # Shrink the scheduler quantum (faster switches to the output
        # path).
        if policy.adapt_quantum:
            quantum = self._read_quantum()
            if quantum is not None:
                self._write_quantum(max(policy.min_quantum_us, quantum // 2))

    def _relax(self, scheduler: Any) -> None:
        policy = self.policy
        shedder = self._shedder
        if shedder is None:
            return
        if self._backlog_bounded:
            # Additive increase back toward the configured ceiling.
            ceiling = (
                policy.max_total_backlog
                if policy.max_total_backlog is not None
                else policy.max_backlog_bound
            )
            bound = shedder.max_total_backlog
            shedder.max_total_backlog = min(
                ceiling, bound + max(64, bound // 4)
            )
        if (
            shedder.max_source_pending is not None
            and policy.max_source_pending is not None
        ):
            pending = shedder.max_source_pending
            shedder.max_source_pending = min(
                policy.max_source_pending,
                pending + max(policy.min_source_pending, pending // 4),
            )
        if policy.adapt_quantum and self._base_quantum_us is not None:
            quantum = self._read_quantum()
            if quantum is not None and quantum < self._base_quantum_us:
                self._write_quantum(
                    min(self._base_quantum_us, quantum * 2)
                )

    def _require_shedder(self) -> BacklogShedder:
        if self._shedder is None:
            # Adaptive-only policy: materialize the drop mechanism the
            # first time the loop decides to shed.
            self._shedder = BacklogShedder(
                max_total_backlog=self.policy.max_backlog_bound,
                strategy=self.policy.shed_strategy,
                protect_priority=self.policy.protect_priority,
                max_source_pending=self.policy.max_source_pending,
            )
        return self._shedder

    # ------------------------------------------------------------------
    # Scheduler-quantum access (QBS basic quantum or RR slice)
    # ------------------------------------------------------------------
    def _read_quantum(self) -> Optional[int]:
        for attr in ("basic_quantum_us", "slice_us"):
            value = getattr(self._scheduler, attr, None)
            if value is not None:
                return value
        return None

    def _write_quantum(self, value: int) -> None:
        for attr in ("basic_quantum_us", "slice_us"):
            if getattr(self._scheduler, attr, None) is not None:
                setattr(self._scheduler, attr, value)
                return

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _publish_counters(self, scheduler: Any) -> None:
        """Refresh the ``overload_*`` engine counters (snapshot/Prometheus).

        Called every iteration start, so the statistics snapshot always
        reflects the live control state.
        """
        statistics = getattr(scheduler, "statistics", None)
        if statistics is None:
            return
        counters = statistics.engine_counters
        counters["overload_dropped"] = float(self.dropped)
        counters["overload_dropped_at_sources"] = float(
            self.dropped_at_sources
        )
        counters["overload_pauses"] = float(self.pauses)
        counters["overload_paused"] = 1.0 if self.paused else 0.0
        counters["overload_ticks"] = float(self.ticks)
        counters["overload_backlog_peak"] = float(self.backlog_peak)
        bound = self.backlog_bound
        if bound is not None:
            counters["overload_backlog_bound"] = float(bound)
        if self.last_p99_s is not None:
            counters["overload_p99_s"] = self.last_p99_s

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot the full control state (tokens, flags, tunings)."""
        shedder = self._shedder
        return {
            "paused": self.paused,
            "pauses": self.pauses,
            "backlog_peak": self.backlog_peak,
            "ticks": self.ticks,
            "last_p99_s": self.last_p99_s,
            "last_tick_us": self._last_tick_us,
            "last_backlog": self._last_backlog,
            "probe_cursor": self._probe_cursor,
            "backlog_bounded": self._backlog_bounded,
            "buckets": {
                name: bucket.state_dump()
                for name, bucket in self._buckets.items()
            },
            "shedder": (
                None
                if shedder is None
                else {
                    "max_total_backlog": shedder.max_total_backlog,
                    "max_source_pending": shedder.max_source_pending,
                    "dropped": shedder.dropped,
                    "dropped_at_sources": shedder.dropped_at_sources,
                    "dropped_by_actor": dict(shedder.dropped_by_actor),
                }
            ),
            "quantum_us": self._read_quantum() if self._scheduler else None,
        }

    def state_restore(self, state: dict) -> None:
        """Re-apply a dump onto an installed controller.

        Also re-applies the adaptive scheduler quantum the loop had
        reached, since that lives on the rebuilt scheduler, which
        restores from *its* snapshot with the structural (pre-tuning)
        value.  (Dumps written before the firing loop lost its quantum
        knob carry a ``train_size`` entry; it is ignored.)
        """
        self.paused = bool(state["paused"])
        self.pauses = int(state["pauses"])
        self.backlog_peak = int(state["backlog_peak"])
        self.ticks = int(state["ticks"])
        self.last_p99_s = state["last_p99_s"]
        self._last_tick_us = state["last_tick_us"]
        self._last_backlog = int(state["last_backlog"])
        self._probe_cursor = int(state["probe_cursor"])
        self._backlog_bounded = bool(state["backlog_bounded"])
        self._buckets = {}
        for name, bucket_state in state["buckets"].items():
            bucket = TokenBucket(
                self.policy.admission_rate or 1.0,
                self.policy.burst_capacity or 1.0,
            )
            bucket.state_restore(bucket_state)
            self._buckets[name] = bucket
        shedder_state = state["shedder"]
        if shedder_state is not None:
            shedder = self._require_shedder()
            shedder.max_total_backlog = shedder_state["max_total_backlog"]
            shedder.max_source_pending = shedder_state["max_source_pending"]
            shedder.dropped = shedder_state["dropped"]
            shedder.dropped_at_sources = shedder_state["dropped_at_sources"]
            shedder.dropped_by_actor = dict(shedder_state["dropped_by_actor"])
        if self._scheduler is not None and state["quantum_us"] is not None:
            if self.policy.adapt_quantum:
                self._write_quantum(state["quantum_us"])

    def __repr__(self) -> str:
        return f"OverloadController({self.policy.describe()})"

"""The unified QoS policy: one config object for all overload knobs.

Before this package, overload control was a handful of scattered settings
(a shedder built from ``max_total_backlog, strategy, protect_priority,
max_source_pending`` and assigned by hand onto a scheduler, plus ad-hoc
CLI flags).  :class:`QoSPolicy` subsumes them all in one declarative record
with three independent mechanism groups and one closed-loop target:

* **shedding** — the classic backlog/source drop bounds (the
  ``BacklogShedder`` surface, field for field);
* **admission** — per-source token buckets refilled in engine time, so
  bursts are smoothed at the door instead of queued;
* **backpressure** — a total-backlog watermark that *pauses* source
  pumping (with hysteresis) instead of growing queues without bound;
* **SLO targeting** — a latency objective the adaptive controller steers
  toward by tuning the shedding bounds and the scheduler quantum from
  observed p99 response times and backlog slope.

Leave a group's fields at ``None``/default and that mechanism is off; a
policy with every group off is invalid (it would control nothing).
Policies are frozen: the mutable control state lives in
:class:`~repro.overload.controller.OverloadController`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from ..core.exceptions import SchedulerError

#: Strategies accepted by the backlog shedder (see ``shedding.py``).
SHED_STRATEGIES = ("drop-oldest", "drop-newest")


@dataclass(frozen=True)
class QoSPolicy:
    """Declarative overload-control configuration (all knobs, one place).

    The four field groups are independent; any subset may be enabled.
    ``parse`` builds a policy from the CLI's compact ``key=value,...``
    spec string.
    """

    # ---- shedding (the BacklogShedder surface) -----------------------
    #: Total ready-backlog bound; excess is dropped from the most
    #: backlogged unprotected actor.  ``None`` = no static bound (the
    #: adaptive loop may still impose a dynamic one).
    max_total_backlog: Optional[int] = None
    #: ``drop-oldest`` (stalest first) or ``drop-newest``.
    shed_strategy: str = "drop-oldest"
    #: Actors at or below this priority never lose queued events.
    protect_priority: int = 5
    #: Input-side bound: due-but-unpumped arrivals beyond this are shed
    #: at the sources (the adaptive loop tightens it under overload).
    max_source_pending: Optional[int] = None

    # ---- admission (token-bucket rate limiting) ----------------------
    #: Sustained admission rate per source in events/s; arrivals beyond
    #: it wait at the source for tokens.  ``None`` = unlimited.
    admission_rate: Optional[float] = None
    #: Bucket capacity in events (the tolerated burst).  ``None`` with a
    #: rate set defaults to one second's worth of tokens.
    admission_burst: Optional[int] = None

    # ---- backpressure (bounded queues, paused sources) ---------------
    #: Total ready-backlog watermark above which source pumping pauses.
    max_ready_backlog: Optional[int] = None
    #: Pumping resumes once backlog drains below
    #: ``max_ready_backlog * resume_fraction`` (hysteresis).
    resume_fraction: float = 0.5

    # ---- SLO targeting (the adaptive control loop) -------------------
    #: Latency objective for the observed sink (e.g. Linear Road's 5 s
    #: notification deadline).  ``None`` disables adaptation.
    latency_slo_s: Optional[float] = None
    #: Engine-time seconds between control-loop evaluations.
    control_period_s: float = 5.0
    #: Range the dynamic backlog bound may move in while adapting.
    min_backlog_bound: int = 64
    max_backlog_bound: int = 100_000
    #: Floor for the adaptively tightened source-pending bound.
    min_source_pending: int = 8
    #: Let the controller shrink the scheduler quantum under overload
    #: (faster switching toward the protected output path).
    adapt_quantum: bool = False
    min_quantum_us: int = 100

    def __post_init__(self) -> None:
        if self.max_total_backlog is not None and self.max_total_backlog <= 0:
            raise SchedulerError("max_total_backlog must be positive")
        if self.shed_strategy not in SHED_STRATEGIES:
            raise SchedulerError(f"unknown strategy {self.shed_strategy!r}")
        if self.max_source_pending is not None and self.max_source_pending < 0:
            raise SchedulerError("max_source_pending must be >= 0")
        if self.admission_rate is not None and self.admission_rate <= 0:
            raise SchedulerError("admission_rate must be positive")
        if self.admission_burst is not None and self.admission_burst < 1:
            raise SchedulerError("admission_burst must be >= 1")
        if self.max_ready_backlog is not None and self.max_ready_backlog <= 0:
            raise SchedulerError("max_ready_backlog must be positive")
        if not 0.0 <= self.resume_fraction < 1.0:
            raise SchedulerError("resume_fraction must be in [0, 1)")
        if self.latency_slo_s is not None and self.latency_slo_s <= 0:
            raise SchedulerError("latency_slo_s must be positive")
        if self.control_period_s <= 0:
            raise SchedulerError("control_period_s must be positive")
        if not 0 < self.min_backlog_bound <= self.max_backlog_bound:
            raise SchedulerError(
                "need 0 < min_backlog_bound <= max_backlog_bound"
            )
        if self.min_source_pending < 1:
            raise SchedulerError("min_source_pending must be >= 1")
        if self.min_quantum_us < 1:
            raise SchedulerError("min_quantum_us must be >= 1")
        if not self.enabled:
            raise SchedulerError(
                "QoSPolicy enables no mechanism: set at least one of "
                "max_total_backlog, max_source_pending, admission_rate, "
                "max_ready_backlog or latency_slo_s"
            )

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True when at least one control mechanism is configured."""
        return any(
            value is not None
            for value in (
                self.max_total_backlog,
                self.max_source_pending,
                self.admission_rate,
                self.max_ready_backlog,
                self.latency_slo_s,
            )
        )

    @property
    def burst_capacity(self) -> Optional[float]:
        """Effective token-bucket capacity (defaults to 1 s of tokens)."""
        if self.admission_rate is None:
            return None
        if self.admission_burst is not None:
            return float(self.admission_burst)
        return max(1.0, self.admission_rate)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "QoSPolicy":
        """Build a policy from a compact CLI spec string.

        Comma-separated ``key=value`` pairs, e.g.::

            slo=5,backlog=20000,source-pending=200,admit=400,pause=50000

        Keys: ``backlog`` (max_total_backlog), ``strategy``, ``protect``
        (protect_priority), ``source-pending`` (max_source_pending),
        ``admit`` (admission_rate), ``burst`` (admission_burst),
        ``pause`` (max_ready_backlog), ``resume`` (resume_fraction),
        ``slo`` (latency_slo_s), ``period`` (control_period_s),
        ``adapt-quantum`` (0/1 flag).
        """
        aliases = {
            "backlog": ("max_total_backlog", int),
            "strategy": ("shed_strategy", str),
            "protect": ("protect_priority", int),
            "source-pending": ("max_source_pending", int),
            "source_pending": ("max_source_pending", int),
            "admit": ("admission_rate", float),
            "burst": ("admission_burst", int),
            "pause": ("max_ready_backlog", int),
            "resume": ("resume_fraction", float),
            "slo": ("latency_slo_s", float),
            "period": ("control_period_s", float),
            "adapt-quantum": ("adapt_quantum", lambda v: v not in ("0", "false")),
            "adapt_quantum": ("adapt_quantum", lambda v: v not in ("0", "false")),
        }
        field_names = {f.name for f in fields(cls)}
        kwargs: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise SchedulerError(
                    f"bad QoS spec item {part!r}: expected key=value"
                )
            key, _, raw = part.partition("=")
            key = key.strip().lower()
            raw = raw.strip()
            if key in aliases:
                name, convert = aliases[key]
            elif key in field_names:
                name, convert = key, None
            else:
                raise SchedulerError(
                    f"unknown QoS spec key {key!r} "
                    f"(known: {', '.join(sorted(aliases))})"
                )
            if convert is None:
                field_types = {f.name: f.type for f in fields(cls)}
                convert = (
                    float
                    if "float" in str(field_types[name])
                    else (str if name == "shed_strategy" else int)
                )
            try:
                kwargs[name] = convert(raw)
            except ValueError as exc:
                raise SchedulerError(
                    f"bad value for QoS spec key {key!r}: {raw!r}"
                ) from exc
        return cls(**kwargs)

    def describe(self) -> str:
        """One-line summary for experiment reports and traces."""
        parts = []
        if self.max_total_backlog is not None:
            parts.append(f"backlog<={self.max_total_backlog}")
        if self.max_source_pending is not None:
            parts.append(f"src<={self.max_source_pending}")
        if self.admission_rate is not None:
            parts.append(f"admit={self.admission_rate:g}/s")
        if self.max_ready_backlog is not None:
            parts.append(f"pause@{self.max_ready_backlog}")
        if self.latency_slo_s is not None:
            parts.append(f"slo={self.latency_slo_s:g}s")
        return "QoS(" + ",".join(parts) + ")"

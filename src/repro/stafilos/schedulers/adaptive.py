"""The adaptive meta-scheduler (ADAPT).

:class:`AdaptiveScheduler` is not a scheduling policy of its own — it is
a meta-policy that *hosts* one of the concrete STAFiLOS policies (QBS,
RR, RB) and, once per control period, re-selects which one to run and
with what quantum, from the observed runtime signals:

* **total ready backlog** — the scheduler's own O(1) counter;
* **rate-priority spread** — ``max/min`` over the positive
  :func:`~repro.core.statistics.rate_priorities`, a measure of how
  *unequal* the actors' global selectivity/cost profiles are (when they
  are all alike, rate-based ordering buys nothing over round-robin).

The decision rule is a deterministic function of those two signals, so
seeded runs remain bit-reproducible:

=====================  =======================================
observed condition      hosted policy
=====================  =======================================
backlog >= high mark    QBS, quantum shrunk with the backlog
backlog <= low mark     RR with a long slice (low overhead)
spread >= threshold     RB (heterogeneous actors: rate order
                        pays for its bookkeeping)
otherwise               QBS with the default quantum
=====================  =======================================

Switches happen only inside :meth:`on_iteration_end` — between director
iterations, where the engine is quiescent and no event train is in
flight — and are rate-limited by a dwell hysteresis (a minimum number of
control periods between switches) so the meta-policy cannot thrash.
Ready work migrates losslessly across a switch via the
:class:`~repro.stafilos.ready.ReadyQueue` snapshot/restore primitive,
which keeps the O(1) backlog counters of the incoming policy exact.

The class declares ``owns_quantum = True``: the
:class:`~repro.overload.controller.OverloadController` AIMD loop checks
that flag and leaves quantum tuning to the meta-policy (it still owns
admission, backpressure, shedding bounds and the event-train quantum),
so the two control loops coordinate instead of fighting over the same
knob.
"""

from __future__ import annotations

from typing import Any, Optional

from ...core.statistics import rate_priorities
from ...observability import tracer as _obs
from .qbs import QuantumPriorityScheduler
from .rb import RateBasedScheduler
from .rr import RoundRobinScheduler


#: Hosted-policy builders, keyed by the kind tag the decision rule (and
#: the checkpoint dump) uses.  Each takes the chosen quantum, which only
#: QBS/RR consume.
_KINDS = ("QBS", "RR", "RB")


class AdaptiveScheduler:
    """Meta-policy: hosts QBS/RR/RB and re-selects per control period.

    Duck-types the full :class:`~repro.stafilos.abstract_scheduler.
    AbstractScheduler` surface by delegating every call to the hosted
    policy; only initialization, the iteration-end hook and the
    checkpoint protocol are intercepted.
    """

    #: Fingerprint tag (the checkpoint layer reads the class attribute).
    policy_name = "ADAPT"

    #: Handshake with the overload controller: quantum tuning is this
    #: meta-policy's job; the AIMD loop must not write the hosted
    #: policy's quantum behind its back.
    owns_quantum = True

    #: Default QBS quantum used in the moderate-load regime.
    DEFAULT_QUANTUM_US = 5_000
    #: RR slice used in the low-load regime.
    RR_SLICE_US = 40_000

    def __init__(
        self,
        control_period_us: int = 1_000_000,
        high_backlog: int = 64,
        low_backlog: int = 8,
        spread_threshold: float = 4.0,
        dwell_periods: int = 2,
        initial_kind: str = "QBS",
        initial_quantum_us: Optional[int] = None,
    ):
        if initial_kind not in _KINDS:
            raise ValueError(
                f"unknown hosted policy kind {initial_kind!r}; "
                f"expected one of {_KINDS}"
            )
        self.control_period_us = control_period_us
        self.high_backlog = high_backlog
        self.low_backlog = low_backlog
        self.spread_threshold = spread_threshold
        self.dwell_periods = dwell_periods
        #: How many policy switches the meta-loop has performed.
        self.switches = 0
        self._kind = initial_kind
        self._quantum_us = (
            initial_quantum_us
            if initial_quantum_us is not None
            else self.DEFAULT_QUANTUM_US
        )
        self._policy = self._build_policy(self._kind, self._quantum_us)
        self._last_control_us: Optional[int] = None
        self._periods_since_switch = 0
        self._workflow = None
        self._statistics = None

    # ------------------------------------------------------------------
    # Hosted-policy plumbing
    # ------------------------------------------------------------------
    @property
    def hosted(self):
        """The concrete policy currently executing (QBS/RR/RB)."""
        return self._policy

    @property
    def hosted_kind(self) -> str:
        return self._kind

    @property
    def quantum_us(self) -> int:
        """The quantum the meta-policy last chose for QBS/RR."""
        return self._quantum_us

    def _build_policy(self, kind: str, quantum_us: int):
        if kind == "QBS":
            return QuantumPriorityScheduler(basic_quantum_us=quantum_us)
        if kind == "RR":
            return RoundRobinScheduler(slice_us=quantum_us)
        if kind == "RB":
            return RateBasedScheduler()
        raise ValueError(f"unknown hosted policy kind {kind!r}")

    def __getattr__(self, name: str) -> Any:
        # Everything not intercepted below is the hosted policy's
        # business (ready queues, dispatch, state machine, hooks...).
        if name == "_policy":
            raise AttributeError(name)
        return getattr(self._policy, name)

    # The overload controller assigns these two attributes directly on
    # "the scheduler"; they must land on the hosted policy (where the
    # hook points read them) and must survive a policy switch.
    @property
    def shedder(self):
        return self._policy.shedder

    @shedder.setter
    def shedder(self, value) -> None:
        self._policy.shedder = value

    @property
    def admission_gate(self):
        return self._policy.admission_gate

    @admission_gate.setter
    def admission_gate(self, value) -> None:
        self._policy.admission_gate = value

    # ------------------------------------------------------------------
    # Intercepted director signals
    # ------------------------------------------------------------------
    def initialize(self, workflow, statistics) -> None:
        self._workflow = workflow
        self._statistics = statistics
        self._policy.initialize(workflow, statistics)

    def on_iteration_end(self, now: int) -> None:
        # The hosted policy runs its own maintenance first (RB releases
        # its period buffer here), so the backlog the meta-loop reads is
        # the true start-of-next-period backlog.
        self._policy.on_iteration_end(now)
        if self._last_control_us is None:
            self._last_control_us = now
            return
        if now - self._last_control_us < self.control_period_us:
            return
        self._last_control_us = now
        self._periods_since_switch += 1
        if self._periods_since_switch < self.dwell_periods:
            return
        self._evaluate(now)

    # ------------------------------------------------------------------
    # The meta-decision
    # ------------------------------------------------------------------
    def _priority_spread(self) -> float:
        """``max/min`` over the positive global rate priorities."""
        assert self._workflow is not None and self._statistics is not None
        rates = [
            rate
            for rate in rate_priorities(
                self._workflow, self._statistics
            ).values()
            if rate > 0.0
        ]
        if len(rates) < 2:
            return 1.0
        return max(rates) / min(rates)

    def _decide(self, backlog: int) -> tuple[str, int]:
        """Map the observed signals to (hosted kind, quantum)."""
        if backlog >= self.high_backlog:
            # Heavy load: priority scheduling with a quantum that
            # shrinks as the backlog grows, so high-priority actors are
            # revisited more often the further behind the engine falls.
            quantum = 500 if backlog >= 4 * self.high_backlog else 1_000
            return "QBS", quantum
        if backlog <= self.low_backlog:
            # Light load: dispatch order barely matters; take the
            # cheapest policy with a long slice to minimize overhead.
            return "RR", self.RR_SLICE_US
        if self._priority_spread() >= self.spread_threshold:
            # Heterogeneous actors under moderate load: rate-based
            # ordering's bookkeeping pays for itself.
            return "RB", self._quantum_us
        return "QBS", self.DEFAULT_QUANTUM_US

    def _evaluate(self, now: int) -> None:
        backlog = self._policy.total_backlog()
        kind, quantum = self._decide(backlog)
        if kind == self._kind:
            if quantum != self._quantum_us:
                # Same policy, new quantum: retune in place (QBS reads
                # ``basic_quantum_us`` at grant time; RR reads
                # ``slice_us`` per slice).
                self._quantum_us = quantum
                for attr in ("basic_quantum_us", "slice_us"):
                    if getattr(self._policy, attr, None) is not None:
                        setattr(self._policy, attr, quantum)
                        break
                if _obs.ENABLED:
                    _obs._TRACER.instant(
                        "sched.adapt_quantum",
                        now,
                        kind=kind,
                        quantum_us=quantum,
                        backlog=backlog,
                    )
            return
        self._switch(kind, quantum, now, backlog)

    def _switch(
        self, kind: str, quantum: int, now: int, backlog: int
    ) -> None:
        """Replace the hosted policy, migrating all ready work."""
        assert self._workflow is not None and self._statistics is not None
        old = self._policy
        new = self._build_policy(kind, quantum)
        new.initialize(self._workflow, self._statistics)
        # Lossless queue migration: snapshot/restore keeps key order
        # (so pop sequences continue exactly) and updates the new
        # policy's backlog tally (so its O(1) counter and dirty-index
        # bookkeeping are exact from the first dispatch).
        for name, queue in old.ready.items():
            new.ready[name].restore_items(queue.snapshot_items())
        new._now = old._now
        new.internal_firings = old.internal_firings
        new.shedder = old.shedder
        new.admission_gate = old.admission_gate
        self._policy = new
        self._kind = kind
        self._quantum_us = quantum
        self.switches += 1
        self._periods_since_switch = 0
        if _obs.ENABLED:
            _obs._TRACER.instant(
                "sched.adapt_switch",
                now,
                to=kind,
                quantum_us=quantum,
                backlog=backlog,
                switches=self.switches,
            )

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        state = self._policy.state_dump()
        state["adaptive"] = {
            "kind": self._kind,
            "quantum_us": self._quantum_us,
            "switches": self.switches,
            "last_control_us": self._last_control_us,
            "periods_since_switch": self._periods_since_switch,
        }
        return state

    def state_restore(self, state: dict) -> None:
        """Rebuild the dumped hosted policy, then restore its state."""
        meta = state["adaptive"]
        self._kind = meta["kind"]
        self._quantum_us = int(meta["quantum_us"])
        self.switches = int(meta["switches"])
        self._last_control_us = meta["last_control_us"]
        self._periods_since_switch = int(meta["periods_since_switch"])
        self._policy = self._build_policy(self._kind, self._quantum_us)
        assert self._workflow is not None and self._statistics is not None
        self._policy.initialize(self._workflow, self._statistics)
        self._policy.state_restore(state)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return f"ADAPT[{self._policy.describe()}]"

    def __repr__(self) -> str:
        return f"AdaptiveScheduler({self.describe()})"

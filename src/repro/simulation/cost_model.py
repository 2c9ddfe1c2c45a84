"""The actor cost model of the virtual-time runtime.

Every actor invocation is charged a number of virtual microseconds:

    cost = base + per_input * inputs_consumed + per_output * outputs_produced

where ``base`` comes from the actor's ``nominal_cost_us`` (or the model
default), optionally perturbed by seeded multiplicative jitter so runs are
noisy-but-reproducible.  Source pumps are charged per emitted arrival.

The model also carries the calibrated **threaded-execution overheads** used
by the simulated PNCWF baseline: a context-switch penalty whenever the
simulated OS switches between actor threads and a synchronization penalty
per queue operation (lock/notify on every put/get).  DESIGN.md documents
the calibration: with the defaults the Linear Road pipeline saturates near
160 reports/s under STAFiLOS schedulers and near 120 reports/s under the
thread-based PNCWF — the capacity ratio the paper measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.actors import Actor, SourceActor
    from ..core.context import FiringContext


@dataclass
class CostModel:
    """Charges virtual microseconds for engine activity."""

    #: Default per-invocation base cost when the actor declares none.
    default_cost_us: int = 200
    #: Cost charged per staged input item consumed by a firing.
    per_input_us: int = 20
    #: Cost charged per event emitted by a firing.
    per_output_us: int = 30
    #: Cost per arrival emitted by a source pump.
    source_per_event_us: int = 50
    #: Fixed overhead of a director scheduling decision (one getNextActor).
    dispatch_overhead_us: int = 5
    #: Base cost of a firing attempt that raised (fault-barrier path):
    #: failed firings abort early, so they are charged this instead of the
    #: full invocation cost — drop/retry accounting must not inflate the
    #: actor's cost statistics.
    failure_cost_us: int = 50
    #: Simulated-OS context switch (PNCWF baseline only).
    context_switch_us: int = 120
    #: Per queue operation lock/notify overhead (PNCWF baseline only).
    sync_per_event_us: int = 60
    #: Global multiplier applied to every charge (capacity calibration).
    scale: float = 1.0
    #: Multiplicative jitter half-width (0.1 = +/-10%); 0 disables.
    jitter: float = 0.0
    seed: int = 7
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------------
    def _jittered(self, cost: float) -> int:
        cost *= self.scale
        if self.jitter > 0:
            cost *= 1.0 + self._rng.uniform(-self.jitter, self.jitter)
        return max(1, int(round(cost)))

    def invocation_cost(self, actor: "Actor", ctx: "FiringContext") -> int:
        """Virtual cost of one internal actor firing."""
        base = (
            actor.nominal_cost_us
            if actor.nominal_cost_us is not None
            else self.default_cost_us
        )
        cost = (
            base
            + self.per_input_us * ctx.inputs_consumed
            + self.per_output_us * ctx.outputs_produced
        )
        return self._jittered(cost)

    def invocation_charge(self, actor: "Actor") -> Optional[tuple]:
        """The constants of *actor*'s :meth:`invocation_cost`, for a firing
        loop that charges inline, or ``None`` to call the method.

        Returns ``(base, per_input_us, per_output_us, scale, low, width,
        draw)``.  The charge of a firing that consumed *i* and produced
        *o* events is ``c = base + per_input_us·i + per_output_us·o``;
        then, when ``draw`` is set (jitter on), ``c = round(c · scale ·
        (1.0 + (low + width · draw())))``, else, when ``scale`` is set,
        ``c = round(c · scale)``; and at least 1.  That is
        :meth:`_jittered` operation for operation: ``random.uniform(a,
        b)`` is ``a + (b - a) · random()``, so one ``draw`` takes the
        same value from the same generator.  ``scale`` is ``None`` when
        the charge is pure integer arithmetic (unit scale, no jitter,
        integer constants).  A subclass, or an instance that shadows
        :meth:`invocation_cost`, keeps the method path.
        """
        if type(self) is not CostModel or "invocation_cost" in vars(self):
            return None
        base = (
            actor.nominal_cost_us
            if actor.nominal_cost_us is not None
            else self.default_cost_us
        )
        jitter = self.jitter
        scale = self.scale
        if jitter <= 0 and scale == 1.0 and all(
            type(value) is int
            for value in (base, self.per_input_us, self.per_output_us)
        ):
            scale = None
        # ``uniform(a, b)``'s operands: ``a`` and ``b - a``.
        low = -jitter
        width = jitter - low
        return (
            base,
            self.per_input_us,
            self.per_output_us,
            scale,
            low,
            width,
            self._rng.random if jitter > 0 else None,
        )

    def failure_cost(self, actor: "Actor", ctx: "FiringContext") -> int:
        """Virtual cost of a firing attempt that raised and was aborted.

        Deliberately *not* the invocation cost: the firing tore down
        mid-way, its partial emissions were discarded, and charging the
        full cost (or recording a full invocation) would inflate the
        actor's cost statistics — the feed of every QoS scheduler.
        """
        cost = self.failure_cost_us + self.per_input_us * ctx.inputs_consumed
        return self._jittered(cost)

    def source_cost(self, source: "SourceActor", emitted: int) -> int:
        """Virtual cost of a source pump that emitted *emitted* arrivals."""
        base = (
            source.nominal_cost_us
            if source.nominal_cost_us is not None
            else self.default_cost_us // 4
        )
        return self._jittered(base + self.source_per_event_us * emitted)

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot the jitter RNG state (Checkpointable protocol).

        The seeded RNG is the model's only mutable state; capturing it
        with :meth:`random.Random.getstate` (a pure observation — no
        draw) is what makes a resumed run charge the exact same jittered
        costs as the uninterrupted one.
        """
        return {"rng_state": self._rng.getstate()}

    def state_restore(self, state: dict) -> None:
        """Re-apply a dumped RNG state (Checkpointable protocol)."""
        self._rng.setstate(state["rng_state"])

    def clone(self, **overrides) -> "CostModel":
        """A copy with some fields replaced (ablation sweeps)."""
        from dataclasses import asdict

        params = {
            key: value
            for key, value in asdict(self).items()
            if not key.startswith("_")
        }
        params.update(overrides)
        return CostModel(**params)

"""Runtime actor statistics — the feed for QoS-aware schedulers.

STAFiLOS exposes runtime statistics to the abstract scheduler: the cost of
each actor (time per invocation), actor input and output rates, and the
derived selectivity.  These are updated on every invocation and consumed by
policies such as the Rate-Based scheduler, which needs *global* (downstream
path-aggregated) selectivity and cost in the style of Sharaf et al.'s
Highest Rate scheduler.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .actors import Actor
    from .workflow import Workflow

#: Horizon (µs) over which input/output rates are measured.
RATE_HORIZON_US = 10_000_000
#: Smoothing factor of the exponentially weighted per-invocation cost.
EWMA_ALPHA = 0.2


class ActorStats:
    """Online statistics for one actor."""

    __slots__ = (
        "invocations",
        "total_cost_us",
        "ewma_cost_us",
        "inputs_total",
        "outputs_total",
        "failures",
        "retries",
        "dead_letters",
        "_input_at",
        "_input_counts",
        "_output_at",
        "_output_counts",
        "_input_window",
        "_output_window",
    )

    def __init__(self):
        self.invocations = 0
        self.total_cost_us = 0
        self.ewma_cost_us: Optional[float] = None
        self.inputs_total = 0
        self.outputs_total = 0
        #: Failed firing attempts (each raise, including retried attempts).
        self.failures = 0
        #: Retries granted by the fault policy.
        self.retries = 0
        #: Items captured in the dead-letter queue for this actor.
        self.dead_letters = 0
        #: Rate windows hold one ``(timestamp_us, count)`` sample per
        #: recording call, *not* one per token, so a batch of 10 000
        #: tokens costs a single sample — kept as two parallel deques of
        #: ints, so recording allocates nothing the garbage collector
        #: tracks.  The running in-horizon token totals live in
        #: ``_input_window``/``_output_window``.
        self._input_at: deque[int] = deque()
        self._input_counts: deque[int] = deque()
        self._output_at: deque[int] = deque()
        self._output_counts: deque[int] = deque()
        self._input_window = 0
        self._output_window = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_invocation(self, cost_us: int) -> None:
        self.invocations += 1
        self.total_cost_us += cost_us
        if self.ewma_cost_us is None:
            self.ewma_cost_us = float(cost_us)
        else:
            self.ewma_cost_us += EWMA_ALPHA * (cost_us - self.ewma_cost_us)

    def record_input(self, count: int, now_us: int) -> None:
        if count <= 0:
            return
        self.inputs_total += count
        at = self._input_at
        at.append(now_us)
        self._input_counts.append(count)
        self._input_window += count
        # Trim only when the oldest sample actually left the horizon.
        if at[0] < now_us - RATE_HORIZON_US:
            self._input_window -= self._trim(at, self._input_counts, now_us)

    def record_output(self, count: int, now_us: int) -> None:
        if count <= 0:
            return
        self.outputs_total += count
        at = self._output_at
        at.append(now_us)
        self._output_counts.append(count)
        self._output_window += count
        if at[0] < now_us - RATE_HORIZON_US:
            self._output_window -= self._trim(at, self._output_counts, now_us)

    # Series recorders: one call settles what a drained train recorded
    # item by item.  Each equals the per-item loop it replaces — the
    # EWMA is folded in the same order, and every rate sample is
    # appended and trimmed as ``record_input``/``record_output`` would,
    # except that a run of equal timestamps becomes one sample (the
    # rates and totals cannot tell the difference).
    def record_invocations(self, costs: list[int]) -> None:
        """``record_invocation(cost)`` for every cost, in order."""
        if not costs:
            return
        ewma = self.ewma_cost_us
        for cost in costs:
            ewma = float(cost) if ewma is None else ewma + EWMA_ALPHA * (
                cost - ewma
            )
        self.ewma_cost_us = ewma
        self.invocations += len(costs)
        self.total_cost_us += sum(costs)

    def record_inputs(self, stamps: list[int]) -> None:
        """``record_input(1, t)`` for every *t* in *stamps*, in order."""
        self.inputs_total += len(stamps)
        self._input_window += len(stamps) - self._append_runs(
            self._input_at, self._input_counts, stamps
        )

    def record_outputs(self, stamps: list[int]) -> None:
        """``record_output(1, t)`` for every *t* in *stamps*, in order."""
        self.outputs_total += len(stamps)
        self._output_window += len(stamps) - self._append_runs(
            self._output_at, self._output_counts, stamps
        )

    @classmethod
    def _append_runs(
        cls, at: deque[int], counts: deque[int], stamps: list[int]
    ) -> int:
        """Append one sample per run of equal stamps, trimming after each
        as a single recording call would; returns evicted tokens."""
        evicted = 0
        i, n = 0, len(stamps)
        while i < n:
            stamp = stamps[i]
            j = i + 1
            while j < n and stamps[j] == stamp:
                j += 1
            at.append(stamp)
            counts.append(j - i)
            if at[0] < stamp - RATE_HORIZON_US:
                evicted += cls._trim(at, counts, stamp)
            i = j
        return evicted

    def record_failure(self) -> None:
        """Count one failed firing attempt (the firing raised)."""
        self.failures += 1

    def record_retry(self) -> None:
        """Count one policy-granted retry of a failed firing."""
        self.retries += 1

    def record_dead_letter(self) -> None:
        """Count one item captured in the dead-letter queue."""
        self.dead_letters += 1

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot every statistics field (Checkpointable protocol).

        Copies the rate deques instead of calling the rate accessors —
        those *trim* their windows, and a checkpoint must be a pure
        observation so a checkpointed run stays bit-identical to an
        uninterrupted one.
        """
        return {
            "invocations": self.invocations,
            "total_cost_us": self.total_cost_us,
            "ewma_cost_us": self.ewma_cost_us,
            "inputs_total": self.inputs_total,
            "outputs_total": self.outputs_total,
            "failures": self.failures,
            "retries": self.retries,
            "dead_letters": self.dead_letters,
            "input_times": list(zip(self._input_at, self._input_counts)),
            "output_times": list(zip(self._output_at, self._output_counts)),
            "input_window": self._input_window,
            "output_window": self._output_window,
        }

    def state_restore(self, state: dict) -> None:
        """Re-apply a dumped statistics record (Checkpointable protocol)."""
        self.invocations = state["invocations"]
        self.total_cost_us = state["total_cost_us"]
        self.ewma_cost_us = state["ewma_cost_us"]
        self.inputs_total = state["inputs_total"]
        self.outputs_total = state["outputs_total"]
        self.failures = state["failures"]
        self.retries = state["retries"]
        self.dead_letters = state["dead_letters"]
        self._input_at = deque(at for at, _ in state["input_times"])
        self._input_counts = deque(n for _, n in state["input_times"])
        self._output_at = deque(at for at, _ in state["output_times"])
        self._output_counts = deque(n for _, n in state["output_times"])
        self._input_window = state["input_window"]
        self._output_window = state["output_window"]

    @staticmethod
    def _trim(at: deque[int], counts: deque[int], now_us: int) -> int:
        """Evict samples older than the horizon; returns evicted tokens."""
        horizon = now_us - RATE_HORIZON_US
        evicted = 0
        while at and at[0] < horizon:
            at.popleft()
            evicted += counts.popleft()
        return evicted

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def avg_cost_us(self) -> float:
        if self.invocations == 0:
            return 0.0
        return self.total_cost_us / self.invocations

    @property
    def selectivity(self) -> float:
        """Output tokens per input token; 1.0 until evidence accumulates."""
        if self.inputs_total == 0:
            return 1.0
        return self.outputs_total / self.inputs_total

    def input_rate_per_s(self, now_us: int) -> float:
        self._input_window -= self._trim(
            self._input_at, self._input_counts, now_us
        )
        span = min(now_us, RATE_HORIZON_US)
        if span <= 0:
            return 0.0
        return self._input_window * 1_000_000 / span

    def output_rate_per_s(self, now_us: int) -> float:
        self._output_window -= self._trim(
            self._output_at, self._output_counts, now_us
        )
        span = min(now_us, RATE_HORIZON_US)
        if span <= 0:
            return 0.0
        return self._output_window * 1_000_000 / span


class StatisticsRegistry:
    """Per-workflow statistics store keyed by actor name."""

    def __init__(self):
        self._stats: dict[str, ActorStats] = {}
        #: Newest engine time any recording call has seen; lets
        #: :meth:`snapshot` evaluate rates without being handed a clock.
        self._last_now_us = 0
        #: Engine-wide (non-per-actor) counters — the checkpoint subsystem
        #: records snapshot count/bytes/duration here.  Exposed in
        #: :meth:`snapshot` under the reserved ``"__engine__"`` key when
        #: non-empty, and rendered as ``repro_engine_*`` Prometheus gauges.
        self.engine_counters: dict[str, float] = {}

    def register(self, actor: "Actor") -> ActorStats:
        # Not ``setdefault(name, ActorStats())``: that would construct
        # (and immediately discard) a full ActorStats on every call — a
        # measurable cost on the per-firing hot path.
        stats = self._stats.get(actor.name)
        if stats is None:
            stats = self._stats[actor.name] = ActorStats()
        return stats

    def get(self, actor: "Actor") -> ActorStats:
        return self.register(actor)

    def record_invocation(self, actor: "Actor", cost_us: int) -> None:
        self.get(actor).record_invocation(cost_us)

    def record_input(self, actor: "Actor", count: int, now_us: int) -> None:
        if now_us > self._last_now_us:
            self._last_now_us = now_us
        self.get(actor).record_input(count, now_us)

    def record_output(self, actor: "Actor", count: int, now_us: int) -> None:
        if now_us > self._last_now_us:
            self._last_now_us = now_us
        self.get(actor).record_output(count, now_us)

    def record_inputs(self, actor: "Actor", stamps: list[int]) -> None:
        """``record_input(actor, 1, t)`` for every *t* in *stamps*."""
        if stamps:
            newest = max(stamps)
            if newest > self._last_now_us:
                self._last_now_us = newest
            self.get(actor).record_inputs(stamps)

    def record_outputs(self, actor: "Actor", stamps: list[int]) -> None:
        """``record_output(actor, 1, t)`` for every *t* in *stamps*."""
        if stamps:
            newest = max(stamps)
            if newest > self._last_now_us:
                self._last_now_us = newest
            self.get(actor).record_outputs(stamps)

    def record_failure(self, actor: "Actor") -> None:
        """Count a failed firing attempt of *actor*."""
        self.get(actor).record_failure()

    def record_retry(self, actor: "Actor") -> None:
        """Count a fault-policy retry granted to *actor*."""
        self.get(actor).record_retry()

    def record_dead_letter(self, actor: "Actor") -> None:
        """Count a dead-lettered item attributed to *actor*."""
        self.get(actor).record_dead_letter()

    def snapshot(
        self, now_us: Optional[int] = None
    ) -> dict[str, dict[str, float]]:
        """The *single* metrics view of the runtime statistics module.

        Every per-actor series a consumer could want is here: invocation
        counts, mean and EWMA cost, token totals, selectivity, and the
        input/output rates evaluated at *now_us* (default: the newest
        engine time any recording call has seen).  The observability
        Prometheus exporter and the harness reporting both read this —
        nothing re-derives metrics from raw :class:`ActorStats` fields.
        """
        now = now_us if now_us is not None else self._last_now_us
        out: dict[str, dict[str, float]] = {
            name: {
                "invocations": stats.invocations,
                "avg_cost_us": stats.avg_cost_us,
                "ewma_cost_us": (
                    stats.ewma_cost_us
                    if stats.ewma_cost_us is not None
                    else 0.0
                ),
                "inputs_total": stats.inputs_total,
                "outputs_total": stats.outputs_total,
                "failures": stats.failures,
                "retries": stats.retries,
                "dead_letters": stats.dead_letters,
                "selectivity": stats.selectivity,
                "input_rate_per_s": stats.input_rate_per_s(now),
                "output_rate_per_s": stats.output_rate_per_s(now),
            }
            for name, stats in self._stats.items()
        }
        if self.engine_counters:
            # Reserved pseudo-actor entry carrying engine-wide counters
            # (checkpoint sizes/durations/counts).  Only present when a
            # producer wrote something, so actor-oriented consumers that
            # predate it are unaffected.
            out["__engine__"] = dict(self.engine_counters)
        return out

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot every actor's statistics record (Checkpointable)."""
        return {
            "stats": {
                name: stats.state_dump()
                for name, stats in self._stats.items()
            },
            "last_now_us": self._last_now_us,
            "engine_counters": dict(self.engine_counters),
        }

    def state_restore(self, state: dict) -> None:
        """Re-apply dumped statistics onto the rebuilt registry."""
        for name, stats_state in state["stats"].items():
            stats = self._stats.get(name)
            if stats is None:
                stats = self._stats[name] = ActorStats()
            stats.state_restore(stats_state)
        self._last_now_us = int(state["last_now_us"])
        self.engine_counters = dict(state["engine_counters"])


def global_rate_metrics(
    workflow: "Workflow",
    registry: StatisticsRegistry,
    default_cost_us: float = 100.0,
) -> dict[str, tuple[float, float]]:
    """Global (path-aggregated) selectivity and cost per actor.

    Follows the Highest Rate construction: for a terminal actor *A*,
    ``GS(A) = s_A`` and ``GC(A) = c_A``.  For an internal actor with
    downstream actors ``D``::

        GS(A) = s_A * sum(GS(d) for d in D)
        GC(A) = c_A + s_A * sum(GC(d) for d in D)

    When an actor is shared among multiple workflow paths the per-path
    contributions are summed, as the paper specifies.  Actors inside cycles
    fall back to their local selectivity and cost.  Actors that have never
    fired use *default_cost_us* so priorities are defined from the start.
    """
    # The structural skeleton (topological order + successor map) is
    # cached on the workflow: RB re-evaluates priorities every period,
    # and only the statistics change between periods, never the graph.
    order, successor_map = workflow.topology()
    metrics: dict[str, tuple[float, float]] = {}

    def local(name: str) -> tuple[float, float]:
        stats = registry.register(workflow.actors[name])
        cost = stats.avg_cost_us if stats.invocations else default_cost_us
        return stats.selectivity, max(cost, 1e-9)

    if order is None:
        # Cyclic workflow: everyone uses local metrics.
        for name in successor_map:
            metrics[name] = local(name)
        return metrics

    for name in reversed(order):
        s_local, c_local = local(name)
        successors = successor_map[name]
        if not successors:
            metrics[name] = (s_local, c_local)
            continue
        gs_down = sum(metrics[succ][0] for succ in successors)
        gc_down = sum(metrics[succ][1] for succ in successors)
        metrics[name] = (s_local * gs_down, c_local + s_local * gc_down)
    return metrics


def rate_priorities(
    workflow: "Workflow",
    registry: StatisticsRegistry,
    default_cost_us: float = 100.0,
) -> dict[str, float]:
    """``Pr(A) = GS(A) / GC(A)`` for every actor (higher = more urgent)."""
    metrics = global_rate_metrics(workflow, registry, default_cost_us)
    return {
        name: gs / gc if gc > 0 else 0.0
        for name, (gs, gc) in metrics.items()
    }

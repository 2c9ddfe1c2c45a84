"""Experiment configurations — Table 3 of the paper.

=============================  =========================================
Workload                       0.5 highways (L-rating)
Workload rate                  ramps to ~200 input reports/s (Figure 5)
Experiment duration            600 sec
QBS source scheduling interval 5 internal actor iterations
Basic quantum (QBS)            500, 1000, 5000, 10000, 20000 µs
Basic quantum (RR)             5000, 10000, 20000, 40000 µs
Priorities used (QBS)          5 (outputs: tolls + accident alerts),
                               10 (statistics + accident detection)
=============================  =========================================

The paper runs every experiment three times and reports the average; the
harness does the same with three seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints, Optional, Union

from ..core.exceptions import SimulationError
from ..linearroad.generator import WorkloadConfig
from ..overload.qos import QoSPolicy
from ..simulation.cost_model import CostModel

#: Table 3 parameter sets.
QBS_BASIC_QUANTA_US = (500, 1_000, 5_000, 10_000, 20_000)
RR_BASIC_QUANTA_US = (5_000, 10_000, 20_000, 40_000)
QBS_SOURCE_INTERVAL = 5
EXPERIMENT_DURATION_S = 600
DEFAULT_SEEDS = (1, 2, 3)
OUTPUT_ACTOR_PRIORITY = 5
MAINTENANCE_ACTOR_PRIORITY = 10

#: The calibrated cost model of DESIGN.md: STAFiLOS schedulers saturate
#: near 160 reports/s; the simulated thread-based PNCWF near 120 (the
#: paper's measured capacity ratio).  ``scale`` lifts the per-actor costs
#: so the Linear Road pipeline averages ~6.3 ms of work per report;
#: ``sync_per_event_us``/``context_switch_us`` are the threaded overheads.
def default_cost_model(seed: int = 7) -> CostModel:
    """The calibrated cost model used by every evaluation bench."""
    return CostModel(
        scale=2.2,
        jitter=0.05,
        seed=seed,
        sync_per_event_us=150,
        context_switch_us=400,
    )


#: The policies an engine can be assembled with: the paper's three
#: STAFiLOS schedulers, the FIFO reference and the thread-based PNCWF.
SCHEDULER_KINDS = ("QBS", "RR", "RB", "FIFO", "PNCWF")


@dataclass(frozen=True)
class SchedulerSpec:
    """Which policy to run and with what parameter."""

    kind: str  # one of SCHEDULER_KINDS
    quantum_us: Optional[int] = None  # QBS basic quantum / RR slice
    source_interval: int = QBS_SOURCE_INTERVAL

    @property
    def label(self) -> str:
        if self.kind == "QBS":
            return f"QBS-q{self.quantum_us}"
        if self.kind == "RR":
            return f"RR-q{self.quantum_us}"
        return self.kind


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the evaluation matrix."""

    scheduler: SchedulerSpec
    workload: WorkloadConfig = field(
        default_factory=lambda: WorkloadConfig(
            duration_s=EXPERIMENT_DURATION_S
        )
    )
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    bucket_s: int = 10
    cost_seed: int = 7
    #: ``--inject-faults`` spec (see :mod:`repro.resilience.injection`);
    #: ``None`` runs fault-free.
    fault_spec: Optional[str] = None
    #: Recovery policy handed to the director.  ``None`` means: fail-stop
    #: (``FaultPolicy(propagate=True)``) for clean runs,
    #: :meth:`FaultPolicy.resilient` when a ``fault_spec`` is set so chaos
    #: runs survive their own injections.
    error_policy: Optional[object] = None
    #: Directory for wave-aligned snapshots (``--checkpoint-dir``);
    #: ``None`` disables checkpointing entirely.
    checkpoint_dir: Optional[str] = None
    #: Engine-time seconds between automatic snapshots
    #: (``--checkpoint-every``); ``None`` with a directory set means
    #: snapshots happen only through the explicit barrier API.
    checkpoint_every_s: Optional[float] = None
    #: How many snapshots the directory store retains (oldest pruned).
    checkpoint_retain: int = 3
    #: Loop bound handed to the SCWF director's firing loop: how many
    #: ready items a dispatched actor may drain before the scheduler is
    #: consulted afresh (``None`` = until it switches away).  Not a
    #: tuning knob — results are bit-identical across values, so it has
    #: no CLI flag and no manifest record; the benchmark harness and the
    #: oracle tests pass it in.
    train_size: Optional[int] = None
    #: Overload-control policy (``--qos``): when set, the harness builds
    #: an :class:`repro.overload.OverloadController` on the director with
    #: the toll-notification sink as the latency probe.  ``None`` runs
    #: uncontrolled (byte-identical to the pre-QoS engine).
    qos: Optional[QoSPolicy] = None
    #: Operator-chain fusion (``--fuse``): when set, the harness runs
    #: :func:`repro.fusion.fuse_workflow` over the built workflow before
    #: attaching the director, compiling linear map segments into single
    #: composed firings.  Sink outputs, wave tags and per-actor counters
    #: are bit-identical to the unfused run; only dispatch overhead (and
    #: therefore the engine-time trajectory) changes — which is why it
    #: stays the one deliberate output-visible speed knob while the
    #: output-invariant ones (train size, shard transport) have no
    #: field.  SCWF only.
    fuse: bool = False
    #: Frontier progress tracking (``--out-of-order``): ``None`` runs
    #: without a tracker (byte-identical to the pre-frontier engine),
    #: ``"track"`` observes wave tokens for counters/traces only, and
    #: ``"close"`` additionally closes timed windows once the merged
    #: source/wave frontier passes them — replacing the engine-time
    #: formation timeout for frontier-managed panes.  SCWF only.
    frontier: Optional[str] = None
    #: Lateness policy spec (``--lateness``): ``"drop"``, ``"expired"``
    #: or ``"grace:<us>"`` — how frontier-managed receivers treat events
    #: older than the applied frontier.  Requires ``frontier="close"``.
    lateness: Optional[str] = None

    def validate(self, sharded: bool = False) -> None:
        """Refuse a combination no engine can be assembled from.

        Every placement asks here before it builds — the single-process
        builder, the shard coordinator (``sharded=True``) before it
        spawns workers, and the CLI — so all of them refuse alike.
        """
        if self.scheduler.kind not in SCHEDULER_KINDS:
            raise SimulationError(
                f"unknown scheduler kind {self.scheduler.kind!r}; "
                f"supported kinds: {', '.join(SCHEDULER_KINDS)}"
            )
        if self.workload.disorder_s > 0 and self.frontier is None:
            raise SimulationError(
                "out-of-order delivery (disorder_s > 0) needs frontier "
                "progress tracking; set frontier='track' or 'close' "
                "(--out-of-order on the CLI)"
            )
        if self.lateness is not None and self.frontier != "close":
            raise SimulationError(
                "a lateness policy only takes effect when the frontier "
                "closes windows; set frontier='close' (--out-of-order close)"
            )
        if self.scheduler.kind != "PNCWF":
            return
        for asked, refusal in (
            (
                sharded,
                "sharded execution (--shards) requires an SCWF scheduler; "
                "the thread-based PNCWF director has no shard-safe loop",
            ),
            (
                self.qos is not None,
                "QoS overload control requires a STAFiLOS scheduler; "
                "the thread-based PNCWF director has no shedding hooks",
            ),
            (
                self.fuse,
                "operator-chain fusion requires the SCWF director; "
                "the thread-based PNCWF engine fires actors on their "
                "own threads and has no composed-firing path",
            ),
            (
                self.frontier is not None,
                "frontier progress tracking requires the SCWF director; "
                "the thread-based PNCWF engine has no token-accounting "
                "hooks",
            ),
        ):
            if asked:
                raise SimulationError(refusal)

    def with_seeds(self, seeds: tuple[int, ...]) -> "ExperimentConfig":
        return replace(self, seeds=seeds)

    def scaled_duration(self, duration_s: int) -> "ExperimentConfig":
        workload = replace(
            self.workload,
            duration_s=duration_s,
        )
        return replace(self, workload=workload)

    @property
    def label(self) -> str:
        return self.scheduler.label


#: The :class:`ExperimentConfig` fields that describe one invocation, not
#: the engine: which seeds to average, where this process checkpoints,
#: the caller's recovery-policy object and the output-invariant loop
#: bound.  A manifest neither records them nor is read for them — the
#: one place that says so.
RUN_LOCAL_FIELDS = frozenset(
    {"seeds", "error_policy", "checkpoint_dir", "train_size"}
)


def from_record(kind, raw):
    """Rebuild a value of annotated type *kind* from its JSON shape.

    Dataclasses are rebuilt field by field from the type hints: a key
    the class no longer declares is ignored and a key an older writer
    did not know yet takes the field's default, so a manifest of any age
    loads.  Lists turn back into the tuples they were dumped from.
    """
    origin = get_origin(kind)
    if origin is Union:  # Optional[...]
        if raw is None:
            return None
        (kind,) = (arg for arg in get_args(kind) if arg is not type(None))
        return from_record(kind, raw)
    if origin is tuple:
        return tuple(from_record(get_args(kind)[0], item) for item in raw)
    if is_dataclass(kind):
        hints = get_type_hints(kind)
        return kind(
            **{
                f.name: from_record(hints[f.name], raw[f.name])
                for f in fields(kind)
                if f.name in raw
            }
        )
    return raw


def figure6_configs(**overrides) -> list[ExperimentConfig]:
    """RR sensitivity: one config per Table 3 slice value."""
    return [
        ExperimentConfig(SchedulerSpec("RR", quantum_us=q), **overrides)
        for q in RR_BASIC_QUANTA_US
    ]


def figure7_configs(**overrides) -> list[ExperimentConfig]:
    """QBS sensitivity: one config per Table 3 basic quantum."""
    return [
        ExperimentConfig(SchedulerSpec("QBS", quantum_us=b), **overrides)
        for b in QBS_BASIC_QUANTA_US
    ]


def figure8_configs(**overrides) -> list[ExperimentConfig]:
    """The head-to-head: best RR and QBS, RB, and thread-based PNCWF."""
    return [
        ExperimentConfig(SchedulerSpec("RR", quantum_us=40_000), **overrides),
        ExperimentConfig(SchedulerSpec("QBS", quantum_us=500), **overrides),
        ExperimentConfig(SchedulerSpec("RB"), **overrides),
        ExperimentConfig(SchedulerSpec("PNCWF"), **overrides),
    ]

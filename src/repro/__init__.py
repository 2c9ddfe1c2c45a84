"""repro: a reproduction of CONFLuEnCE + STAFiLOS.

CONFLuEnCE is a CONtinuous workFLow ExeCution Engine: a workflow system
whose workflows are always active, reacting to unbounded streams through
windowed active queues and wave-tagged events.  STAFiLOS is its pluggable
STreAm FLOw Scheduling framework (Neophytou, Chrysanthis, Labrinidis).

This module is the **public facade**: everything a user of the engine
needs importable from one place::

    from repro import (
        Workflow, WindowSpec, SourceActor, MapActor, SinkActor,
        SCWFDirector, QBSScheduler, VirtualClock, CostModel,
        SimulationRuntime, RecordingTracer, export_chrome_trace,
    )

The deep module paths remain importable (``repro.core``,
``repro.stafilos``...) and are the right place for advanced
extension points; the facade re-exports the everyday surface.

Top-level layout:

* :mod:`repro.core` — the continuous-workflow kernel (actors, ports,
  windows, waves, directors, statistics);
* :mod:`repro.directors` — models of computation (SDF, DDF, DE, PN and the
  thread-based PNCWF continuous-workflow director);
* :mod:`repro.stafilos` — the scheduled CWF director, TM windowed receiver,
  abstract scheduler and the QBS/RR/RB/FIFO/EDF policies;
* :mod:`repro.simulation` — the virtual-time runtime and cost model used by
  the benchmark harness;
* :mod:`repro.observability` — engine-wide tracing and metrics export
  (Chrome trace-event, JSONL, Prometheus text);
* :mod:`repro.overload` — elastic overload control: the unified
  ``QoSPolicy``, token-bucket admission, backpressure and the adaptive
  SLO-targeting ``OverloadController``;
* :mod:`repro.resilience` — fault policies, supervision, dead-letter
  queues and deterministic fault injection for continuous runs;
* :mod:`repro.checkpoint` — wave-aligned checkpointing and crash
  recovery: the ``Checkpointable`` protocol, snapshot stores, the
  engine snapshot orchestrator and the periodic/barrier trigger layer;
* :mod:`repro.shard` — sharded execution: the workload partitioned by a
  group-by key across worker processes, routed over pipes, merged
  deterministically, with live shard migration via checkpoints;
* :mod:`repro.streams` — the TCP push source, its wire codec and
  incremental sliding aggregates;
* :mod:`repro.sqldb` — the relational database (the standard library's
  SQLite, in memory, behind a small adapter) the Linear Road workflow
  stores segment statistics and accidents in;
* :mod:`repro.linearroad` — the Linear Road benchmark: generator, workflow
  and validator;
* :mod:`repro.harness` — experiment configurations and figure/table
  renderers for the paper's evaluation.
"""

from . import (
    checkpoint,
    core,
    directors,
    observability,
    overload,
    resilience,
    shard,
    simulation,
    stafilos,
    streams,
)
from .checkpoint import (
    Checkpointable,
    CheckpointManifest,
    CheckpointStore,
    DirectoryCheckpointStore,
    EngineCheckpointer,
    MemoryCheckpointStore,
    restore_latest,
)
from .core import (
    Actor,
    ActorRegistry,
    ActorStats,
    build_workflow,
    CompositeActor,
    ConsumptionMode,
    CWEvent,
    FiringContext,
    FunctionActor,
    MapActor,
    Measure,
    SinkActor,
    SourceActor,
    StatisticsRegistry,
    WaveTag,
    Window,
    window_from_spec,
    WindowSpec,
    Workflow,
)
from .directors import (
    DDFDirector,
    DEDirector,
    PNCWFDirector,
    PNDirector,
    SDFDirector,
)
from .fusion import (
    detect_chains,
    FusedChain,
    fuse_workflow,
    FusionReport,
)
from .observability import (
    export_chrome_trace,
    export_jsonl,
    export_prometheus,
    get_tracer,
    NullTracer,
    RecordingTracer,
    set_tracer,
    TraceRecord,
    Tracer,
    use_tracer,
)
from .overload import (
    BacklogShedder,
    OverloadController,
    QoSPolicy,
    TokenBucket,
)
from .resilience import (
    DeadLetter,
    DeadLetterQueue,
    FaultInjector,
    FaultPolicy,
    FaultSupervisor,
    install_faults,
    parse_fault_spec,
    replay_dead_letters,
)
from .shard import (
    merge_traces,
    run_sharded,
    ShardCoordinator,
    ShardedRunResult,
    ShardMigration,
    ShardPlan,
)
from .simulation import CostModel, SimulationRuntime, VirtualClock, WallClock
from .stafilos import (
    AbstractScheduler,
    ActorState,
    EarliestDeadlineScheduler,
    FIFOScheduler,
    QuantumPriorityScheduler,
    RateBasedScheduler,
    RoundRobinScheduler,
    SCWFDirector,
)
from .streams import publish_lines, TCPStreamSource

#: Policy-name aliases: the paper (and the facade's users) call the
#: schedulers by their acronyms.
QBSScheduler = QuantumPriorityScheduler
RRScheduler = RoundRobinScheduler
RBScheduler = RateBasedScheduler
EDFScheduler = EarliestDeadlineScheduler

__version__ = "1.1.0"

__all__ = [
    # sub-packages (deep paths stay supported)
    "checkpoint",
    "core",
    "directors",
    "fusion",
    "observability",
    "overload",
    "resilience",
    "shard",
    "simulation",
    "stafilos",
    "streams",
    # checkpointing & recovery
    "Checkpointable",
    "CheckpointManifest",
    "CheckpointStore",
    "DirectoryCheckpointStore",
    "EngineCheckpointer",
    "MemoryCheckpointStore",
    "restore_latest",
    # workflow model
    "Actor",
    "ActorRegistry",
    "ActorStats",
    "build_workflow",
    "CompositeActor",
    "ConsumptionMode",
    "CWEvent",
    "FiringContext",
    "FunctionActor",
    "MapActor",
    "Measure",
    "SinkActor",
    "SourceActor",
    "StatisticsRegistry",
    "WaveTag",
    "Window",
    "window_from_spec",
    "WindowSpec",
    "Workflow",
    # directors / models of computation
    "DDFDirector",
    "DEDirector",
    "PNCWFDirector",
    "PNDirector",
    "SDFDirector",
    # operator-chain fusion
    "detect_chains",
    "FusedChain",
    "fuse_workflow",
    "FusionReport",
    # STAFiLOS
    "AbstractScheduler",
    "ActorState",
    "EarliestDeadlineScheduler",
    "EDFScheduler",
    "FIFOScheduler",
    "QBSScheduler",
    "QuantumPriorityScheduler",
    "RateBasedScheduler",
    "RBScheduler",
    "RoundRobinScheduler",
    "RRScheduler",
    "SCWFDirector",
    # overload control / QoS
    "BacklogShedder",
    "OverloadController",
    "QoSPolicy",
    "TokenBucket",
    # resilience
    "DeadLetter",
    "DeadLetterQueue",
    "FaultInjector",
    "FaultPolicy",
    "FaultSupervisor",
    "install_faults",
    "parse_fault_spec",
    "replay_dead_letters",
    # sharded execution
    "merge_traces",
    "run_sharded",
    "ShardCoordinator",
    "ShardedRunResult",
    "ShardMigration",
    "ShardPlan",
    # simulation substrate
    "CostModel",
    "SimulationRuntime",
    "VirtualClock",
    "WallClock",
    # observability
    "export_chrome_trace",
    "export_jsonl",
    "export_prometheus",
    "get_tracer",
    "NullTracer",
    "RecordingTracer",
    "set_tracer",
    "TraceRecord",
    "Tracer",
    "use_tracer",
    # streams
    "publish_lines",
    "TCPStreamSource",
    # misc
    "__version__",
]

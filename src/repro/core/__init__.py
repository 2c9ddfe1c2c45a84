"""The continuous-workflow (CWf) kernel: the paper's primary model.

This package implements the Continuous Workflow model of CONFLuEnCE —
actors, ports, channels, windowed active queues, wave-tagged events, the
director abstraction and runtime statistics — independently of any specific
model of computation.  Concrete directors live in :mod:`repro.directors`
and the STAFiLOS scheduling framework in :mod:`repro.stafilos`.
"""

from .actors import (
    Actor,
    CompositeActor,
    FunctionActor,
    MapActor,
    SinkActor,
    SourceActor,
)
from .context import FiringContext
from .description import ActorRegistry, build_workflow, window_from_spec
from .director import Director
from .events import CWEvent
from .exceptions import (
    ActorError,
    ActorQuarantinedError,
    ConfluenceError,
    DirectorError,
    InjectedFault,
    PortError,
    ReceiverError,
    ResilienceError,
    SchedulerError,
    SimulationError,
    WindowError,
    WorkflowError,
)
from .ports import Channel, InputPort, OutputPort
from .receivers import FIFOReceiver, Receiver, WindowedReceiver
from .statistics import (
    ActorStats,
    StatisticsRegistry,
    global_rate_metrics,
    rate_priorities,
)
from .tokens import Token
from .waves import WaveGenerator, WaveScope, WaveTag
from .windows import (
    ConsumptionMode,
    Measure,
    strip_window_timeouts,
    Window,
    WindowOperator,
    WindowSpec,
)
from .workflow import Workflow

__all__ = [
    "Actor",
    "ActorError",
    "ActorQuarantinedError",
    "ActorRegistry",
    "ActorStats",
    "build_workflow",
    "window_from_spec",
    "Channel",
    "CompositeActor",
    "ConfluenceError",
    "ConsumptionMode",
    "CWEvent",
    "Director",
    "DirectorError",
    "FIFOReceiver",
    "FiringContext",
    "FunctionActor",
    "global_rate_metrics",
    "InjectedFault",
    "InputPort",
    "MapActor",
    "Measure",
    "OutputPort",
    "PortError",
    "rate_priorities",
    "Receiver",
    "ReceiverError",
    "ResilienceError",
    "SchedulerError",
    "SimulationError",
    "SinkActor",
    "SourceActor",
    "StatisticsRegistry",
    "Token",
    "WaveGenerator",
    "WaveScope",
    "WaveTag",
    "strip_window_timeouts",
    "Window",
    "WindowedReceiver",
    "WindowError",
    "WindowOperator",
    "WindowSpec",
    "Workflow",
    "WorkflowError",
]

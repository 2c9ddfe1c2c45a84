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
from .timekeeper import TimeKeeper, seconds_to_us, us_to_seconds
from .tokens import RecordToken, Token, as_token
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
    "as_token",
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
    "RecordToken",
    "ResilienceError",
    "SchedulerError",
    "seconds_to_us",
    "SimulationError",
    "SinkActor",
    "SourceActor",
    "StatisticsRegistry",
    "TimeKeeper",
    "Token",
    "us_to_seconds",
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

"""Push-stream substrate: sources, sinks and wire codecs.

CONFLuEnCE supports push communication — "actors which are able to connect
to external data streams (through TCP or HTTP connections); as data are
pushed into those connections from the sources these actors pump it into
the workflow's internal ports at a rate which is dictated by the
director's execution model" (paper §2.2).  This package provides those
actors: trace replay, synthetic Poisson feeds, and a real TCP push source,
plus codecs and sink-side adapters.
"""

from .aggregates import IncrementalAggActor, SlidingAggregate
from .codecs import CodecError, CSVCodec, JSONLinesCodec, position_report_codec
from .sinks import CallbackSink, RecordingSink, ThrottledAlertSink
from .sources import (
    PoissonSource,
    publish_lines,
    ReplaySource,
    TCPStreamSource,
)

__all__ = [
    "CallbackSink",
    "IncrementalAggActor",
    "SlidingAggregate",
    "CodecError",
    "CSVCodec",
    "JSONLinesCodec",
    "PoissonSource",
    "position_report_codec",
    "publish_lines",
    "RecordingSink",
    "ReplaySource",
    "TCPStreamSource",
    "ThrottledAlertSink",
]

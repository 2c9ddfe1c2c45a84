"""Push-stream substrate: the TCP push source and its wire codec.

CONFLuEnCE supports push communication — "actors which are able to connect
to external data streams (through TCP or HTTP connections); as data are
pushed into those connections from the sources these actors pump it into
the workflow's internal ports at a rate which is dictated by the
director's execution model" (paper §2.2).  This package provides that
actor, a real TCP push source, with its newline-delimited JSON codec and
a publisher for tests and demos, plus incremental sliding aggregates.
"""

from .aggregates import IncrementalAggActor, SlidingAggregate
from .codecs import CodecError, JSONLinesCodec
from .sources import publish_lines, TCPStreamSource

__all__ = [
    "IncrementalAggActor",
    "SlidingAggregate",
    "CodecError",
    "JSONLinesCodec",
    "publish_lines",
    "TCPStreamSource",
]

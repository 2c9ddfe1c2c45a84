"""Engine-wide observability: low-overhead tracing + metrics export.

The paper's STAFiLOS framework is driven entirely by runtime statistics,
yet an operator also needs to see *why* a scheduler thrashed at t≈440 s or
where a wave stalled.  This package gives every layer of the engine a
first-class telemetry channel, in the spirit of the progress/telemetry
channels of timestamp-token dataflow systems:

* :class:`~repro.observability.tracer.Tracer` — the protocol hook points
  talk to; :class:`~repro.observability.tracer.NullTracer` is the
  zero-cost default (one attribute load + branch per hook site) and
  :class:`~repro.observability.tracer.RecordingTracer` captures typed
  records into a bounded ring buffer;
* :mod:`~repro.observability.export` — serializers: JSONL, the Chrome
  ``chrome://tracing`` trace-event format (virtual-time µs map directly
  onto the trace timebase), and a Prometheus-style text metrics snapshot
  fed from :meth:`repro.core.statistics.StatisticsRegistry.snapshot`;
* the harness grows a ``--trace out.json`` flag and the CLI a
  ``python -m repro trace`` subcommand.

Hook points live in actor firing (:mod:`repro.core.actors`,
:mod:`repro.core.director`), window formation/expiry
(:mod:`repro.core.windows`, :mod:`repro.core.receivers`), wave lifecycle
(:mod:`repro.core.waves`), scheduler decisions and state transitions
(:mod:`repro.stafilos`), load shedding, queue depths, and source/sink
throughput (:mod:`repro.core.actors`).

Usage::

    from repro import RecordingTracer, use_tracer, export_chrome_trace

    tracer = RecordingTracer()
    with use_tracer(tracer):
        runtime.run(600)
    export_chrome_trace(tracer.records(), "trace.json")
"""

from .export import (
    export_chrome_trace,
    export_jsonl,
    export_prometheus,
    snapshot_metrics,
)
from .tracer import (
    NullTracer,
    RecordingTracer,
    TraceRecord,
    Tracer,
    current_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "current_tracer",
    "export_chrome_trace",
    "export_jsonl",
    "export_prometheus",
    "NullTracer",
    "RecordingTracer",
    "set_tracer",
    "snapshot_metrics",
    "TraceRecord",
    "Tracer",
    "use_tracer",
]

"""Which engine callables the traced run wraps, and the per-layer metrics.

Every wrapper goes on a *public* callable of a layer — a class attribute,
or the module global the layer is called through — and is installed for the
traced run only (``install`` ... ``tracer.uninstall()``).  The engine is
not edited and carries no hook for this.

Layers (the text before the colon of a span name) map to the repository's
modules:

==============  =====================================================
generator       ``linearroad.generator``
runtime         ``simulation.runtime`` (the loop itself)
idle            ``simulation.clock.WallClock.jump_to`` (sleeping; live only)
director        ``stafilos.scwf_director``
scheduler       ``stafilos.abstract_scheduler`` + ``stafilos.schedulers``
receiver        ``core.receivers`` / ``stafilos.tm_receiver`` / ``core.windows``
actor           ``core.actors`` / ``linearroad.actors`` / ``fusion.chain``
sink            ``SinkActor`` and its subclasses (``TollNotifier`` ...)
sql             ``sqldb.Database.execute``
statistics      ``core.statistics``
cost_model      ``simulation.cost_model``
source          ``SourceActor.pump``
shard_routing   ``shard.routing`` (partition, merge)
shard_codec     ``shard.codec`` (coordinator-side encode)
shard_pipe      coordinator-side ``Connection.send`` / ``recv`` / ``poll``
entry           the traced entry point's own time, outside all of the above
==============  =====================================================
"""

from __future__ import annotations

import functools
import statistics
from multiprocessing.connection import Connection
from typing import Iterator

from repro.core.actors import Actor, SinkActor, SourceActor
from repro.core.receivers import WindowedReceiver
from repro.core.statistics import ActorStats, StatisticsRegistry
from repro.core.windows import WindowOperator
from repro.linearroad.generator import LinearRoadWorkload
from repro.shard import coordinator as shard_coordinator
from repro.simulation.clock import WallClock
from repro.simulation.cost_model import CostModel
from repro.simulation.runtime import SimulationRuntime
from repro.sqldb import Database
from repro.stafilos.abstract_scheduler import AbstractScheduler
from repro.stafilos.scwf_director import SCWFDirector
from repro.stafilos.tm_receiver import TMWindowedReceiver

from metrics import ACTOR_CLASSES
from tracing import SpanTracer

def _subclasses(cls: type) -> Iterator[type]:
    """*cls* and every class derived from it, each once."""
    seen = set()
    pending = [cls]
    while pending:
        current = pending.pop()
        if current not in seen:
            seen.add(current)
            yield current
            pending.extend(current.__subclasses__())


@functools.cache
def _fire_span(actor_type: type) -> str:
    layer = "sink" if issubclass(actor_type, SinkActor) else "actor"
    return f"{layer}:{actor_type.__name__}.fire"


def _fire_name(args: tuple) -> str:
    return _fire_span(type(args[0]))


def _sql_name(args: tuple) -> str:
    kind = args[1].lstrip()[:6].upper()
    return "sql:select" if kind == "SELECT" else "sql:write"


def install(tracer: SpanTracer) -> None:
    """Wrap every layer boundary; ``tracer.uninstall()`` undoes it."""
    counts = tracer.counts
    samples = tracer.samples
    patch = tracer.patch

    def count_reports(args, result):
        counts["gen.reports"] += len(result)

    patch(LinearRoadWorkload, "arrivals", name="generator:arrivals",
          after=count_reports)

    def count_iterations(args, result):
        counts["runtime.iterations"] += result

    patch(SimulationRuntime, "run", name="runtime:run",
          after=count_iterations)
    patch(WallClock, "jump_to", name="idle:jump_to")

    def count_firings(args, result):
        counts["director.internal_firings"] += result[0]
        counts["director.source_emissions"] += result[1]

    patch(SCWFDirector, "run_iteration", name="director:run_iteration",
          after=count_firings)
    for method in (
        "schedule_ready",
        "schedule_ready_batch",
        "next_window_deadline",
        "fire_window_timeouts",
        "next_arrival_time",
    ):
        patch(SCWFDirector, method, name=f"director:{method}")

    def count_empty_picks(args, result):
        if result is None:
            counts["sched.empty_picks"] += 1

    for scheduler in _subclasses(AbstractScheduler):
        if "get_next_actor" in vars(scheduler):
            patch(scheduler, "get_next_actor",
                  name="scheduler:get_next_actor", after=count_empty_picks)
        for method in ("enqueue", "enqueue_batch"):
            if method in vars(scheduler):
                patch(scheduler, method, name=f"scheduler:{method}")

    def count_windows(args, result):
        counts["recv.windows_out"] += len(result)

    for receiver in (WindowedReceiver, TMWindowedReceiver):
        patch(receiver, "put", name="receiver:put")
        patch(receiver, "put_batch", name="receiver:put")
        patch(receiver, "force_timeout", name="receiver:force_timeout")
    patch(WindowOperator, "put", name="receiver:operator_put",
          after=count_windows)
    patch(WindowOperator, "put_batch", name="receiver:operator_put",
          after=count_windows)
    patch(WindowOperator, "force_timeout", name="receiver:force_timeout",
          after=count_windows)
    patch(WindowOperator, "next_deadline", name="receiver:next_deadline")

    for actor in _subclasses(Actor):
        # ``fire_batch`` is what the train path calls in place of ``fire``.
        for method in ("fire", "fire_batch"):
            if method in vars(actor):
                patch(actor, method, namer=_fire_name)

    patch(Database, "execute", namer=_sql_name)

    for method in (
        "record_invocation", "record_input", "record_output",
        "record_failure", "record_retry", "record_dead_letter",
    ):
        patch(StatisticsRegistry, method, name="statistics:record")
        patch(ActorStats, method, name="statistics:actor_record")

    patch(CostModel, "invocation_cost", name="cost_model:invocation_cost")
    patch(CostModel, "source_cost", name="cost_model:source_cost")

    def note_pump(args, emitted):
        counts["source.events"] += emitted

    def note_lag(args):
        # How far reading lags input: engine clock at the pump minus the
        # due time of the oldest arrival it is about to deliver.
        source, ctx = args
        due = source.next_arrival_time()
        if due is not None and due <= ctx.now:
            samples["source.lag_us"].append(ctx.now - due)

    for source in _subclasses(SourceActor):
        if "pump" in vars(source):
            patch(source, "pump", name="source:pump", before=note_lag,
                  after=note_pump)

    # The coordinator calls these through its own module globals.
    patch(shard_coordinator, "partition_arrivals",
          name="shard_routing:partition_arrivals")

    def count_merged(args, result):
        counts["shard.merge_records"] += len(result)

    patch(shard_coordinator, "merge_traces",
          name="shard_routing:merge_traces", after=count_merged)

    patch(shard_coordinator, "encode_chunk", name="shard_codec:encode_chunk")

    def keep_chunk(args):
        # (watermark, blob) of every chunk message, for the worker replay.
        message = args[1]
        if type(message) is tuple and message[0] == "chunk":
            samples["shard.chunks"].append((message[1], message[2]))

    patch(Connection, "send", name="shard_pipe:send", before=keep_chunk)
    patch(Connection, "recv", name="shard_pipe:recv")
    patch(Connection, "poll", name="shard_pipe:poll")


def layer_metrics(tracer: SpanTracer, by_name: dict) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced run.

    *by_name* is ``tracer.by_name()``, computed once by the caller.
    """
    counts = tracer.counts

    def calls(*names: str) -> int:
        return sum(by_name[name][0] for name in names if name in by_name)

    def self_s(*names: str) -> float:
        return sum(by_name[name][1] for name in names if name in by_name)

    def layer_self_s(layer: str) -> float:
        return sum(
            entry[1] for name, entry in by_name.items()
            if name.startswith(layer + ":")
        )

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    gen_calls, gen_total_s = tracer.total_of("generator:arrivals")
    picks = calls("scheduler:get_next_actor")
    puts = calls("receiver:put")
    pumps = calls("source:pump")
    metrics = {
        "gen.reports": share(counts["gen.reports"], gen_calls),
        "gen.busy_s": share(gen_total_s, gen_calls),
        "runtime.iterations": counts["runtime.iterations"],
        "runtime.self_s": self_s("runtime:run"),
        "runtime.idle_sleep_s": self_s("idle:jump_to"),
        "director.iterations": calls("director:run_iteration"),
        "director.internal_firings": counts["director.internal_firings"],
        "director.source_firings": counts["director.source_emissions"],
        "director.self_s": layer_self_s("director"),
        "sched.pick_calls": picks,
        "sched.pick_s": self_s("scheduler:get_next_actor"),
        "sched.enqueue_calls": calls(
            "scheduler:enqueue", "scheduler:enqueue_batch"
        ),
        "sched.enqueue_s": self_s(
            "scheduler:enqueue", "scheduler:enqueue_batch"
        ),
        "sched.empty_pick_share": share(counts["sched.empty_picks"], picks),
        "recv.put_calls": puts,
        "recv.put_s": self_s("receiver:put", "receiver:operator_put"),
        "recv.windows_out": counts["recv.windows_out"],
        "recv.windows_per_put": share(counts["recv.windows_out"], puts),
        "recv.deadline_scan_calls": calls("receiver:next_deadline"),
        "recv.deadline_scan_s": self_s("receiver:next_deadline"),
        "recv.timeout_calls": calls("receiver:force_timeout"),
        "recv.timeout_s": self_s("receiver:force_timeout"),
        "actor.fire_calls": sum(
            entry[0] for name, entry in by_name.items()
            if name.startswith("actor:")
        ),
        "actor.fire_self_s": layer_self_s("actor"),
        "sql.select_calls": calls("sql:select"),
        "sql.select_s": self_s("sql:select"),
        "sql.write_calls": calls("sql:write"),
        "sql.write_s": self_s("sql:write"),
        "stats.record_calls": calls("statistics:actor_record"),
        "stats.record_s": layer_self_s("statistics"),
        "cost.calls": calls(
            "cost_model:invocation_cost", "cost_model:source_cost"
        ),
        "cost.s": layer_self_s("cost_model"),
        "source.pump_calls": pumps,
        "source.pump_s": self_s("source:pump"),
        "source.events_per_pump": share(counts["source.events"], pumps),
        "sink.fire_s": layer_self_s("sink"),
        "shard.partition_s": self_s("shard_routing:partition_arrivals"),
        "shard.merge_s": self_s("shard_routing:merge_traces"),
        "shard.merge_records": counts["shard.merge_records"],
        "shard.encode_s": self_s("shard_codec:encode_chunk"),
        "shard.send_s": self_s("shard_pipe:send"),
        "shard.ack_wait_s": self_s("shard_pipe:recv", "shard_pipe:poll"),
        "entry.self_s": layer_self_s("entry"),
        "trace.root_s": tracer.root_seconds(),
    }
    for cls in ACTOR_CLASSES:
        names = (f"actor:{cls}.fire", f"sink:{cls}.fire")
        metrics[f"actor.{cls}.fire_calls"] = calls(*names)
        metrics[f"actor.{cls}.fire_self_s"] = self_s(*names)
    return metrics


def source_lag_ms(tracer: SpanTracer, time_scale: float) -> tuple[float, float]:
    """(p50, max) of the source's reading lag in wall milliseconds."""
    lags = [lag / time_scale / 1000.0 for lag in tracer.samples["source.lag_us"]]
    if not lags:
        return 0.0, 0.0
    return statistics.median(lags), max(lags)

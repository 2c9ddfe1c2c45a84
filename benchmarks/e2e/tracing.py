"""Wall-clock span recorder for the traced benchmark run.

The benchmark, not the engine, owns the instrumentation: for one traced
run it replaces the layers' public callables (class attributes, or the
module globals a layer calls through) with timing wrappers, and puts the
originals back afterwards.  Every wrapped call records one span — name,
start, end, parent — in memory; nothing is written while the run is in
flight.  A layer's *self time* is its spans' duration minus the part their
child spans cover, so the self times of all spans under the root add up to
the root span exactly: every nanosecond of the traced call is charged to
one layer.

Span names read ``"<layer>:<callable>"``; the text before the colon is the
layer a span's self time is charged to.
"""

from __future__ import annotations

import functools
import os
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Optional

#: Layer that receives the root span's own self time: whatever the traced
#: entry point did outside every wrapped callable.
ENTRY_LAYER = "entry"

class SpanTracer:
    """Records nested wall-clock spans and owns the wrappers that emit them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, in start order (columnar: 32 bytes a span).
        self.name_id = array("l")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("l")
        self._stack: list[int] = [-1]
        #: Free-form counts bumped by ``after`` hooks (windows produced,
        #: events pumped, bytes encoded ...), measured where the work happens.
        self.counts: Counter = Counter()
        #: Free-form sample lists collected by ``after`` hooks.
        self.samples: dict[str, list] = defaultdict(list)
        #: Half-open index range of the spans recorded under the root.
        self.root_range: Optional[tuple[int, int]] = None
        self._patched: list[tuple[Any, str, bool, Any]] = []
        # A forked child inherits the patched classes; it removes the
        # wrappers so shard workers run the engine untraced, at their real
        # speed, and the coordinator's waits are the ones users see.
        os.register_at_fork(after_in_child=self.uninstall)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def intern(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def wrap(
        self,
        func: Callable,
        name: Optional[str] = None,
        namer: Optional[Callable[[tuple], str]] = None,
        before: Optional[Callable[[tuple], None]] = None,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """A wrapper of *func* that records one span per call.

        *name* fixes the span name; *namer* derives it from the call's
        positional arguments instead (per actor class, per SQL statement
        kind).  *before* (arguments) and *after* (arguments, result) run
        outside the span, to bump counts or collect samples.
        """
        names = self.name_id
        starts = self.start_ns
        ends = self.end_ns
        parents = self.parent
        stack = self._stack
        now = perf_counter_ns
        intern = self.intern
        fixed_id = None if name is None else intern(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(starts)
            names.append(
                fixed_id if fixed_id is not None else intern(namer(args))
            )
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(now())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = now()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def root(self, name: str = f"{ENTRY_LAYER}:root"):
        """Context manager around the traced entry-point call."""
        return _RootSpan(self, name)

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, **wrap_args) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a wrapper."""
        had = attr in vars(owner)
        original = vars(owner).get(attr)
        func = getattr(owner, attr)
        setattr(owner, attr, self.wrap(func, **wrap_args))
        self._patched.append((owner, attr, had, original))

    def uninstall(self) -> None:
        """Put every patched attribute back exactly as it was."""
        while self._patched:
            owner, attr, had, original = self._patched.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def installed(self) -> int:
        return len(self._patched)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def by_name(
        self, span_range: Optional[tuple[int, int]] = None
    ) -> dict[str, tuple[int, float, float]]:
        """``{span name: (calls, self seconds, total seconds)}``.

        Limited to the spans under the root unless another half-open index
        range is given.
        """
        if span_range is None:
            span_range = self.root_range
        if span_range is None:
            raise ValueError("no root span was recorded")
        first, last = span_range
        starts, ends, parents = self.start_ns, self.end_ns, self.parent
        covered = [0] * (last - first)
        for index in range(first, last):
            parent = parents[index]
            if parent >= first:
                covered[parent - first] += ends[index] - starts[index]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        total_ns: Counter = Counter()
        name_ids = self.name_id
        for index in range(first, last):
            name_id = name_ids[index]
            duration = ends[index] - starts[index]
            calls[name_id] += 1
            total_ns[name_id] += duration
            self_ns[name_id] += duration - covered[index - first]
        return {
            self.names[name_id]: (
                calls[name_id],
                self_ns[name_id] / 1e9,
                total_ns[name_id] / 1e9,
            )
            for name_id in calls
        }

    def total_of(self, name: str) -> tuple[int, float]:
        """(calls, total seconds) of one span name over the whole trace,
        set-up included — for layers that mostly run outside the root."""
        name_id = self._name_ids.get(name)
        calls = 0
        total_ns = 0
        for index, candidate in enumerate(self.name_id):
            if candidate == name_id:
                calls += 1
                total_ns += self.end_ns[index] - self.start_ns[index]
        return calls, total_ns / 1e9

    def root_seconds(self) -> float:
        first, _ = self.root_range
        return (self.end_ns[first] - self.start_ns[first]) / 1e9


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]


def layer_table(by_name: dict[str, tuple[int, float, float]]) -> dict[str, float]:
    """Self seconds per layer, largest first."""
    table: Counter = Counter()
    for name, (_, self_s, _) in by_name.items():
        table[layer_of(name)] += self_s
    return dict(sorted(table.items(), key=lambda item: -item[1]))


class _RootSpan:
    def __init__(self, tracer: SpanTracer, name: str):
        self._tracer = tracer
        self._name_id = tracer.intern(name)

    def __enter__(self) -> SpanTracer:
        tracer = self._tracer
        self._index = len(tracer.start_ns)
        tracer.name_id.append(self._name_id)
        tracer.parent.append(-1)
        tracer.end_ns.append(0)
        tracer._stack.append(self._index)
        tracer.start_ns.append(perf_counter_ns())
        return tracer

    def __exit__(self, *exc_info) -> None:
        tracer = self._tracer
        tracer.end_ns[self._index] = perf_counter_ns()
        tracer._stack.pop()
        tracer.root_range = (self._index, len(tracer.start_ns))

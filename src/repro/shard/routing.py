"""Key-based shard routing: plans, seeds and the deterministic merge.

Sharded execution partitions a workflow's input stream by a user-chosen
*group-by key* (for Linear Road: the expressway).  Each distinct key
value becomes one **logical shard** — a complete, independent engine
over the key's slice of the stream — and ``--shards N`` only decides how
many worker *processes* those logical shards are multiplexed onto.  The
logical partition therefore never depends on the worker count, which is
what makes the merged output (and chaos-run fault schedules) identical
under any ``N``.

Three concerns live here:

* :class:`ShardPlan` — the assignment of logical shards to workers,
  including the reassignment hook live migration uses;
* :func:`shard_seed` — per-shard RNG seed derivation using the same
  CRC-of-name mixing scheme as
  :class:`~repro.resilience.injection.FaultInjector`, so seeds are
  stable across processes and shard counts (``hash()`` is not);
* :func:`canonical_trace` / :func:`merge_traces` — the canonical sink
  trace (external event timestamp + payload, engine emission times
  excluded) and its deterministic merge, which is bit-identical between
  a single-process run and any sharded run of the same seeded workload.
"""

from __future__ import annotations

import zlib
from collections.abc import Mapping
from dataclasses import astuple, fields, is_dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, Hashable, List, Sequence, Tuple

from ..core.exceptions import SimulationError

#: One canonical sink record: (external timestamp, canonical payload).
CanonicalRecord = Tuple[int, Any]


def shard_seed(base_seed: int, shard_name: str) -> int:
    """Mix *shard_name* into *base_seed* with the FaultInjector scheme.

    ``(base << 32) ^ crc32(name)`` — the same construction
    :class:`~repro.resilience.injection.FaultInjector` uses to derive
    per-actor RNG streams.  CRC32 is stable across interpreter runs and
    processes (unlike ``hash``), so every logical shard draws the same
    jitter/fault stream no matter which worker hosts it or how many
    workers exist.
    """
    return (int(base_seed) << 32) ^ zlib.crc32(
        shard_name.encode("utf-8")
    )


def shard_salt(shard_name: str) -> int:
    """CRC32 salt for per-shard fault-injection streams.

    Passed to :func:`repro.resilience.install_faults` so each logical
    shard's injectors draw an independent — but placement-independent —
    failure schedule.
    """
    return zlib.crc32(shard_name.encode("utf-8"))


class ShardPlan:
    """Assignment of logical shards (key values) to worker processes.

    The *groups* are the sorted distinct values of the shard key; the
    initial placement is round-robin by group index.  :meth:`move`
    reassigns one group — the bookkeeping half of live shard migration.
    """

    def __init__(self, groups: Sequence[Hashable], workers: int):
        if workers < 1:
            raise SimulationError("a shard plan needs >= 1 worker")
        if not groups:
            raise SimulationError(
                "a shard plan needs at least one shard key group"
            )
        #: Sorted distinct key values; index == logical shard id.
        self.groups: tuple = tuple(sorted(set(groups)))
        #: Number of worker processes the groups are multiplexed onto.
        self.workers = min(workers, len(self.groups))
        self._assignment: Dict[Hashable, int] = {
            group: index % self.workers
            for index, group in enumerate(self.groups)
        }

    def worker_of(self, group: Hashable) -> int:
        """The worker currently hosting *group* (raises on unknown key)."""
        try:
            return self._assignment[group]
        except KeyError:
            raise SimulationError(
                f"shard key group {group!r} is not in the plan "
                f"(groups: {list(self.groups)})"
            ) from None

    def groups_of(self, worker: int) -> tuple:
        """The logical shards currently hosted by *worker*, sorted."""
        return tuple(
            group
            for group in self.groups
            if self._assignment[group] == worker
        )

    def move(self, group: Hashable, to_worker: int) -> int:
        """Reassign *group* to *to_worker*; returns the previous worker."""
        if not 0 <= to_worker < self.workers:
            raise SimulationError(
                f"cannot move shard {group!r} to worker {to_worker}: "
                f"the plan has workers 0..{self.workers - 1}"
            )
        previous = self.worker_of(group)
        self._assignment[group] = to_worker
        return previous

    def assignment(self) -> Dict[Hashable, int]:
        """A copy of the current group -> worker mapping."""
        return dict(self._assignment)

    def __repr__(self) -> str:
        return (
            f"ShardPlan(groups={list(self.groups)}, "
            f"workers={self.workers}, assignment={self._assignment})"
        )


def partition_arrivals(
    arrivals: Sequence[Tuple[int, Any]],
    key_fn: Callable[[Any], Hashable],
) -> Dict[Hashable, List[Tuple[int, Any]]]:
    """Split an arrival schedule into per-group slices, order preserved.

    Filtering the *global* schedule (rather than regenerating per shard)
    keeps each report's arrival timestamp — which encodes its global
    index — byte-identical to the single-process run.
    """
    slices: Dict[Hashable, List[Tuple[int, Any]]] = {}
    for pair in arrivals:
        slices.setdefault(key_fn(pair[1]), []).append(pair)
    return slices


#: Field values ``astuple`` would hand back as they are.
_ATOMS = frozenset({int, float, str, bool, type(None), bytes})
#: Per dataclass: one call that reads every field, in declaration order.
_FIELD_GETTERS: Dict[type, Callable[[Any], tuple]] = {}


def _field_values(value: Any) -> tuple:
    """``astuple(value)`` without deep-copying a flat record."""
    getter = _FIELD_GETTERS.get(type(value))
    if getter is None:
        names = [spec.name for spec in fields(value)]
        # ``attrgetter`` answers a tuple only from two names up.
        getter = attrgetter(*names) if len(names) > 1 else astuple
        _FIELD_GETTERS[type(value)] = getter
    flat = getter(value)
    if _ATOMS.issuperset(map(type, flat)):
        return flat
    return astuple(value)  # a nested record, list or dict field


def _canonical_payload(item: Any) -> Any:
    """A comparable, picklable image of one sink item's payload."""
    value = getattr(item, "value", item)
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + _field_values(value)
    if isinstance(value, Mapping):
        return tuple(value.items())
    if hasattr(value, "values"):  # a Window of events
        return tuple(value.values)
    return value


def canonical_trace(sink: Any) -> List[CanonicalRecord]:
    """The canonical output trace of one sink actor.

    Each record is ``(external_timestamp_us, canonical_payload)``.  The
    engine emission time is deliberately excluded: per-worker virtual
    clocks advance with per-shard work, so emission times differ between
    a sharded and a single-process run even when the computed outputs
    are identical — the canonical trace captures exactly the part that
    must match.
    """
    records: List[CanonicalRecord] = []
    for _, item in sink.items:
        timestamp = getattr(item, "timestamp", None)
        records.append(
            (0 if timestamp is None else int(timestamp),
             _canonical_payload(item))
        )
    return records


def _merge_key(record: CanonicalRecord) -> Tuple[int, str]:
    """Total order for canonical records: timestamp, then payload repr."""
    return (record[0], repr(record[1]))


def merge_traces(
    traces: Sequence[List[CanonicalRecord]],
) -> List[CanonicalRecord]:
    """Deterministically merge per-shard canonical traces into one.

    A stable sort on ``(external timestamp, payload)`` — both fields are
    derived purely from event content, so the merged trace of N shards
    is bit-identical to the (identically sorted) trace of a
    single-process run, whatever order the shards' engines emitted in.
    """
    merged: List[CanonicalRecord] = []
    for trace in traces:
        merged.extend(trace)
    merged.sort(key=_merge_key)
    return merged


def canonical_run_traces(system: Any) -> Dict[str, List[CanonicalRecord]]:
    """Canonical toll + accident traces of one Linear Road system."""
    return {
        "toll": sorted(
            canonical_trace(system.toll_out), key=_merge_key
        ),
        "accident": sorted(
            canonical_trace(system.accident_out), key=_merge_key
        ),
    }

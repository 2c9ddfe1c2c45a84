"""Wave tags: hierarchical lineage identifiers for continuous-workflow events.

A *wave* is the set of internal events that descend from one external event.
When the external event ``e_i`` (with timestamp ``t_i``) enters the system it
receives the root wave-tag ``t_i``.  If processing an event with wave-tag
``w`` produces ``n`` new events, those events receive the wave-tags
``w.1, w.2, ..., w.n`` and the last one is *marked* as the final event of its
(sub-)wave.  Downstream actors can use the marks to synchronize every event
belonging to a single wave (wave-based windows).

Wave-tags are therefore paths in a tree rooted at the external event.  We
represent them as immutable tuples of integers: ``(serial,)`` for a root tag
and ``(serial, 3, 1)`` for the tag the paper writes as ``t_i.3.1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional

from ..observability import tracer as _obs


@dataclass(frozen=True, order=True, slots=True)
class WaveTag:
    """An immutable, totally ordered wave-tag.

    Ordering is lexicographic on the underlying path, which matches the
    paper's semantics: events of earlier external events order before later
    ones, and within a wave the production order is preserved.
    """

    path: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("a wave-tag path must have at least one element")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def root(cls, serial: int) -> "WaveTag":
        """The wave-tag of an external event with serial number *serial*.

        Root tags are interned: every event of a wave (and every
        ``root_tag`` lookup against it) shares one tuple-backed instance,
        which keeps the hot per-event allocations off the emission path.
        """
        return _interned_root(serial)

    def child(self, index: int) -> "WaveTag":
        """The tag of the *index*-th (1-based) event produced from this one."""
        if index < 1:
            raise ValueError("wave child indices are 1-based")
        # Skip the frozen-dataclass ``__init__`` (as ``_revive_wave_tag``
        # does): a child path is never empty, so there is nothing to check.
        tag = WaveTag.__new__(WaveTag)
        object.__setattr__(tag, "path", self.path + (index,))
        return tag

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def serial(self) -> int:
        """Serial number of the originating external event."""
        return self.path[0]

    @property
    def depth(self) -> int:
        """Nesting depth: 0 for a root tag, 1 for ``t.k``, and so on."""
        return len(self.path) - 1

    @property
    def parent(self) -> Optional["WaveTag"]:
        """The tag this one descends from, or ``None`` for a root tag."""
        if len(self.path) == 1:
            return None
        return WaveTag(self.path[:-1])

    @property
    def root_tag(self) -> "WaveTag":
        """The root tag of the wave this tag belongs to (interned)."""
        return _interned_root(self.path[0])

    def is_root(self) -> bool:
        return len(self.path) == 1

    def __reduce__(self):
        """Fast pickle path: rebuild from the path tuple alone.

        Checkpoint snapshots serialize one tag per retained event; the
        dataclass default walks ``__getstate__``/``copyreg`` machinery
        per instance, which dominates snapshot time on windowed queues.
        """
        return (_revive_wave_tag, (self.path,))

    def is_ancestor_of(self, other: "WaveTag") -> bool:
        """True when *other* descends (strictly) from this tag."""
        return (
            len(other.path) > len(self.path)
            and other.path[: len(self.path)] == self.path
        )

    def same_wave(self, other: "WaveTag") -> bool:
        """True when both tags descend from the same external event."""
        return self.path[0] == other.path[0]

    def ancestors(self) -> Iterator["WaveTag"]:
        """Yield every proper ancestor, nearest first."""
        tag = self.parent
        while tag is not None:
            yield tag
            tag = tag.parent

    def __str__(self) -> str:
        return ".".join(str(part) for part in self.path)

    def __repr__(self) -> str:
        return f"WaveTag({self})"


def _revive_wave_tag(path: tuple) -> "WaveTag":
    """Rebuild a tag without re-running dataclass/init machinery."""
    if len(path) == 1:
        return _interned_root(path[0])
    tag = WaveTag.__new__(WaveTag)
    object.__setattr__(tag, "path", path)
    return tag


@lru_cache(maxsize=8192)
def _interned_root(serial: int) -> "WaveTag":
    """One shared :class:`WaveTag` instance per root serial.

    Tags compare and hash by value, so interning is purely an allocation
    optimization — bounded so long runs cannot grow the cache without
    limit (old serials simply fall back to fresh instances).
    """
    return WaveTag((serial,))


@dataclass
class WaveGenerator:
    """Allocates root wave-tags for external events entering the system.

    One generator is shared per workflow so root serials are globally unique
    and monotone in admission order.
    """

    _counter: itertools.count = field(default_factory=lambda: itertools.count(1))

    def next_root(self) -> WaveTag:
        """Allocate the next root wave-tag."""
        return WaveTag.root(next(self._counter))

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot the next root serial without consuming it.

        ``itertools.count`` exposes its next value through ``__reduce__``
        (that is how the counter itself pickles), so the read is free of
        side effects — a checkpointed run allocates the exact same wave
        serials as one that never checkpoints.
        """
        return {"next_serial": self._counter.__reduce__()[1][0]}

    def state_restore(self, state: dict) -> None:
        """Rewind/advance the generator to a dumped serial (Checkpointable)."""
        self._counter = itertools.count(int(state["next_serial"]))


class WaveScope:
    """Tracks child-tag allocation while one actor firing is in progress.

    A scope is opened by the firing context with the wave-tag of the event
    (or window) being consumed; every produced event asks the scope for its
    child tag.  When the firing ends, :meth:`close` marks the most recently
    produced event as the last of its sub-wave, which is what downstream
    wave-windows key on.  A firing context keeps one scope and
    re-opens it (:meth:`open`) for every item it consumes.
    """

    __slots__ = ("consumed", "_next_index", "_last_event")

    def __init__(self, consumed: Optional[WaveTag] = None):
        self.open(consumed)

    def open(self, consumed: Optional[WaveTag]) -> None:
        """(Re)start the scope on a newly consumed tag."""
        self.consumed = consumed
        self._next_index = 1
        self._last_event = None  # type: ignore[assignment]

    def tag_for_output(self) -> WaveTag:
        tag = self.consumed.child(self._next_index)
        self._next_index += 1
        return tag

    def note_event(self, event) -> None:
        """Remember the most recent event so it can be marked on close."""
        self._last_event = event

    @property
    def produced(self) -> int:
        return self._next_index - 1

    def close(self) -> None:
        if self._last_event is not None:
            self._last_event.last_in_wave = True
            if _obs.ENABLED:
                _obs._TRACER.instant(
                    "wave.subwave_complete",
                    self._last_event.timestamp,
                    wave=str(self.consumed),
                    produced=self.produced,
                )

"""Continuous-workflow events (``CWEvent``).

CONFLuEnCE encapsulates every token into a *CWEvent* carrying:

* the external-event **timestamp** (microseconds of virtual or wall time) of
  the wave the event belongs to — this is what response-time metrics and
  time-based windows are computed against;
* the **wave-tag** describing the event's lineage (see
  :mod:`repro.core.waves`), held as its bare path tuple;
* a ``last_in_wave`` mark set on the final event a firing produces, so
  downstream actors can synchronize complete waves.

One event is one object: the payload and the wave path sit in its own
slots, so emitting an event allocates the event and its path alone.
Events are totally ordered by ``(timestamp, path, seq)`` which makes the
per-actor ready queues of the STAFiLOS abstract scheduler well-defined.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from .tokens import Token, field_of
from .waves import WaveTag

_EVENT_SEQ = itertools.count(1)


class CWEvent:
    """A timestamped, wave-stamped token travelling through the workflow."""

    __slots__ = (
        "value",
        "timestamp",
        "path",
        "last_in_wave",
        "enqueue_time",
        "seq",
    )

    def __init__(
        self,
        value: Any,
        timestamp: int,
        path: tuple[int, ...] | WaveTag,
        last_in_wave: bool = False,
    ):
        #: The raw payload; a :class:`Token` passed in is unwrapped.
        self.value = value._value if isinstance(value, Token) else value
        self.timestamp = int(timestamp)
        #: The wave-tag path, e.g. ``(serial, 3, 1)`` for ``t_i.3.1``;
        #: a :class:`WaveTag` passed in is unwrapped.
        self.path = path.path if isinstance(path, WaveTag) else path
        self.last_in_wave = last_in_wave
        #: Set by receivers when the event is enqueued; used by statistics.
        self.enqueue_time: Optional[int] = None
        #: Global admission order; tie-breaker for deterministic ordering.
        self.seq = next(_EVENT_SEQ)

    @property
    def wave(self) -> WaveTag:
        """The event's wave-tag, built on each read from :attr:`path`.

        A read-only view for tracing and tests: the engine reads the
        path itself and never pays for a tag object per event.
        """
        return WaveTag(self.path)

    def field(self, name: str) -> Any:
        """Field access on the payload (used by group-by clauses)."""
        return field_of(self.value, name)

    def __reduce__(self):
        """Fast pickle path for checkpoint snapshots.

        Windowed receivers retain tens of thousands of events, so
        snapshot serialization is dominated by per-event pickling cost.
        Reducing to primitives (payload, path tuple, ints) cuts that
        cost ~5x; the payload object itself stays memo-shared across
        events.  The first argument names the :class:`Token` class, as
        every snapshot written since the format began does, so the
        bytes of old and new snapshots agree.  The rebuild bypasses
        ``__init__`` so restoring a snapshot neither draws from
        ``_EVENT_SEQ`` nor loses the original ``seq`` — a requirement
        for bit-identical resume (ready queues tie-break on ``seq``).
        """
        return (
            _revive_event,
            (
                Token,
                self.value,
                self.timestamp,
                self.path,
                self.last_in_wave,
                self.enqueue_time,
                self.seq,
            ),
        )

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------
    def _key(self) -> tuple:
        return (self.timestamp, self.path, self.seq)

    def __lt__(self, other: "CWEvent") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "CWEvent") -> bool:
        return self._key() <= other._key()

    def __repr__(self) -> str:
        mark = "!" if self.last_in_wave else ""
        return (
            f"CWEvent(t={self.timestamp}, w={self.wave}{mark}, "
            f"{self.value!r})"
        )


def _revive_event(
    token_cls: type,
    value,
    timestamp: int,
    path: tuple,
    last_in_wave: bool,
    enqueue_time,
    seq: int,
) -> "CWEvent":
    """Rebuild a pickled event verbatim (see :meth:`CWEvent.__reduce__`).

    *token_cls* is the payload wrapper class the snapshot names; events
    hold the raw payload, so it is read for nothing.
    """
    event = CWEvent.__new__(CWEvent)
    event.value = value
    event.timestamp = timestamp
    event.path = path
    event.last_in_wave = last_in_wave
    event.enqueue_time = enqueue_time
    event.seq = seq
    return event

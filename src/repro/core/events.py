"""Continuous-workflow events (``CWEvent``).

CONFLuEnCE encapsulates every token into a *CWEvent* carrying:

* the external-event **timestamp** (microseconds of virtual or wall time) of
  the wave the event belongs to — this is what response-time metrics and
  time-based windows are computed against;
* the **wave-tag** describing the event's lineage (see
  :mod:`repro.core.waves`);
* a ``last_in_wave`` mark set on the final event a firing produces, so
  downstream actors can synchronize complete waves.

Events are totally ordered by ``(timestamp, wave, seq)`` which makes the
per-actor ready queues of the STAFiLOS abstract scheduler well-defined.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from .tokens import Token
from .waves import WaveTag

_EVENT_SEQ = itertools.count(1)


class CWEvent:
    """A timestamped, wave-stamped token travelling through the workflow."""

    __slots__ = (
        "token",
        "timestamp",
        "wave",
        "last_in_wave",
        "enqueue_time",
        "seq",
    )

    def __init__(
        self,
        token: Token | Any,
        timestamp: int,
        wave: WaveTag,
        last_in_wave: bool = False,
    ):
        self.token = token if isinstance(token, Token) else Token(token)
        self.timestamp = int(timestamp)
        self.wave = wave
        self.last_in_wave = last_in_wave
        #: Set by receivers when the event is enqueued; used by statistics.
        self.enqueue_time: Optional[int] = None
        #: Global admission order; tie-breaker for deterministic ordering.
        self.seq = next(_EVENT_SEQ)

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    @property
    def value(self) -> Any:
        """The raw payload carried by the event's token."""
        return self.token._value

    def field(self, name: str) -> Any:
        """Field access on the payload (used by group-by clauses)."""
        return self.token.field(name)

    def derive(self, token: Token | Any, wave: WaveTag) -> "CWEvent":
        """Create a descendant event that inherits this event's timestamp."""
        return CWEvent(token, self.timestamp, wave)

    def __reduce__(self):
        """Fast pickle path for checkpoint snapshots.

        Windowed receivers retain tens of thousands of events, so
        snapshot serialization is dominated by per-event pickling cost.
        Reducing to primitives (payload, path tuple, ints) instead of
        nested ``Token``/``WaveTag`` objects cuts that cost ~5x; the
        payload object itself stays memo-shared across events.  The
        rebuild bypasses ``__init__`` so restoring a snapshot neither
        draws from ``_EVENT_SEQ`` nor loses the original ``seq`` — a
        requirement for bit-identical resume (ready queues tie-break
        on ``seq``).
        """
        token = self.token
        return (
            _revive_event,
            (
                type(token),
                token._value,
                self.timestamp,
                self.wave.path,
                self.last_in_wave,
                self.enqueue_time,
                self.seq,
            ),
        )

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------
    def _key(self) -> tuple:
        return (self.timestamp, self.wave, self.seq)

    def __lt__(self, other: "CWEvent") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "CWEvent") -> bool:
        return self._key() <= other._key()

    def __repr__(self) -> str:
        mark = "!" if self.last_in_wave else ""
        return f"CWEvent(t={self.timestamp}, w={self.wave}{mark}, {self.token!r})"


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

    Token and wave wrappers are reconstructed around the primitive
    state; both compare by value, so losing wrapper *identity* sharing
    between events is observationally equivalent.
    """
    event = CWEvent.__new__(CWEvent)
    token = token_cls.__new__(token_cls)
    object.__setattr__(token, "_value", value)
    event.token = token
    event.timestamp = timestamp
    wave = WaveTag.__new__(WaveTag)
    object.__setattr__(wave, "path", path)
    event.wave = wave
    event.last_in_wave = last_in_wave
    event.enqueue_time = enqueue_time
    event.seq = seq
    return event

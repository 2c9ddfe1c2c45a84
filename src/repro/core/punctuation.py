"""Punctuation semantics for continuous streams.

The paper's related machinery (its ref [30], Tucker et al.) lets a stream
carry *punctuations*: assertions that no future event will precede a given
timestamp.  A punctuation lets time-based windows close **exactly** — not
by a wall-clock timeout guess, but because the producer guaranteed the
window's content is complete.

A :class:`Punctuation` travels as an ordinary event payload; windowed
receivers intercept it (see
:meth:`repro.core.receivers.WindowedReceiver.put`): every time-based group
whose right boundary lies at or before the punctuation closes and
produces, and the punctuation itself is consumed by the queue (it is a
control item, never staged for the actor).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Punctuation:
    """"No event with timestamp < ``up_to_us`` will ever arrive here.""" ""

    up_to_us: int

    def __post_init__(self) -> None:
        if self.up_to_us < 0:
            raise ValueError("punctuation timestamps cannot be negative")


@dataclass(frozen=True)
class Watermark:
    """A frontier assertion: event time has progressed to ``up_to_us``.

    Semantically a punctuation ("no event with timestamp < ``up_to_us``
    is still coming"), but consumed by the *frontier* closure path: a
    windowed receiver that sees one closes every time-based pane whose
    right boundary lies at or before the watermark and remembers the
    bound for lateness classification — it never force-flushes partial
    token/wave windows the way a :class:`Punctuation` timeout would.
    Deliberately not a ``Punctuation`` subclass so the two control items
    cannot be routed into each other's handling by an isinstance check.
    """

    up_to_us: int

    def __post_init__(self) -> None:
        if self.up_to_us < 0:
            raise ValueError("watermark timestamps cannot be negative")


#: The payload types windowed receivers consume as control items.
CONTROL_ITEMS = (Punctuation, Watermark)

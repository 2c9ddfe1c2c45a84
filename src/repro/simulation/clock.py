"""Clocks for the execution runtimes.

The benchmark harness runs everything in **virtual time**: actor invocations
advance a :class:`VirtualClock` by their modelled cost, and idle engines
jump straight to the next arrival or window timeout.  This is the key
substitution documented in DESIGN.md — the Python reproduction cannot match
the JVM's wall-clock throughput, but every scheduling decision (quanta,
slices, periods, priorities) is made on microsecond arithmetic that is
identical in virtual and real time.

:class:`WallClock` implements the same interface against the host clock so
the SCWF director can also be run live.
"""

from __future__ import annotations

import time

from ..core.exceptions import SimulationError


class VirtualClock:
    """A monotone microsecond counter advanced explicitly by the runtime."""

    def __init__(self, start_us: int = 0):
        #: Current engine time.  A plain attribute (the engine reads it
        #: several times per event); move it only through ``advance`` /
        #: ``jump_to``.
        self.now_us = int(start_us)

    def advance(self, delta_us: int) -> int:
        """Consume *delta_us* microseconds of engine time."""
        if delta_us < 0:
            raise SimulationError(f"cannot advance time by {delta_us}us")
        now = self.now_us = self.now_us + int(delta_us)
        return now

    def jump_to(self, timestamp_us: int) -> int:
        """Fast-forward an idle engine; never moves backwards."""
        if timestamp_us > self.now_us:
            self.now_us = int(timestamp_us)
        return self.now_us

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot the current virtual time (Checkpointable protocol)."""
        return {"now_us": self.now_us}

    def state_restore(self, state: dict) -> None:
        """Re-apply a dumped virtual time (Checkpointable protocol)."""
        self.now_us = int(state["now_us"])

    def __repr__(self) -> str:
        return f"VirtualClock({self.now_us}us)"


class WallClock:
    """The same interface bound to the host's monotonic clock."""

    def __init__(self, time_scale: float = 1.0):
        self._epoch = time.monotonic()
        self.time_scale = time_scale

    @property
    def now_us(self) -> int:
        elapsed = time.monotonic() - self._epoch
        return int(elapsed * self.time_scale * 1_000_000)

    def advance(self, delta_us: int) -> int:
        """Wall time advances by itself; firing costs are real."""
        return self.now_us

    def jump_to(self, timestamp_us: int) -> int:
        """Cannot fast-forward reality: sleep until the timestamp."""
        remaining_us = timestamp_us - self.now_us
        if remaining_us > 0:
            time.sleep(remaining_us / self.time_scale / 1_000_000)
        return self.now_us

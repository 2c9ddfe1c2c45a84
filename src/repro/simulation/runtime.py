"""The virtual-time simulation runtime.

Drives an iterative continuous-workflow director (the SCWF director, or the
simulated thread-based baseline) against a virtual clock: iterations run
back-to-back while there is work, and when the engine goes idle the clock
jumps straight to the next external arrival or timed-window timeout.

The runtime is duck-typed over the director: it needs ``run_iteration()``,
``next_arrival_time()``, ``next_window_deadline()``,
``fire_window_timeouts(now)``, ``initialize_all()`` and ``wrapup_all()``.
"""

from __future__ import annotations

import gc
from typing import Optional

from ..core.exceptions import SimulationError
from ..core.timekeeper import US_PER_S
from ..observability import tracer as _obs
from .clock import VirtualClock


class SimulationRuntime:
    """Runs one workflow + director combination to a virtual-time horizon."""

    def __init__(self, director, clock: VirtualClock, checkpointer=None):
        self.director = director
        self.clock = clock
        self.iterations_run = 0
        #: Optional :class:`~repro.checkpoint.EngineCheckpointer`; when
        #: set, the loop offers it every *productive* iteration end as a
        #: snapshot point (a quiescent wave boundary by construction).
        self.checkpointer = checkpointer

    def run(
        self,
        until_s: float,
        drain: bool = False,
        max_iterations: int = 50_000_000,
    ) -> int:
        """Simulate until the horizon (seconds of virtual time).

        With ``drain=True`` the runtime keeps iterating past the horizon
        until all admitted work is processed (no new arrivals are admitted —
        sources hold arrivals stamped later than the horizon only if the
        workload put them there).  Returns the number of director
        iterations executed.
        """
        horizon_us = int(until_s * US_PER_S)
        director = self.director
        if not getattr(director, "_initialized", False):
            director.initialize_all()
        # What exists by now (arrival schedule, tables, plans) lives as
        # long as the run: freeze it so full collections walk only what
        # the run itself allocates.  A caller's own freeze is not ours
        # to undo.
        frozen_here = gc.get_freeze_count() == 0
        if frozen_here:
            gc.freeze()
        iterations = 0
        try:
            while True:
                if iterations >= max_iterations:
                    raise SimulationError(
                        f"simulation exceeded {max_iterations} iterations "
                        "before the horizon; runaway workload?"
                    )
                now = self.clock.now_us
                if now >= horizon_us and not drain:
                    break
                # Fire any timed-window timeouts that are due before working.
                deadline = director.next_window_deadline()
                if deadline is not None and deadline <= now:
                    director.fire_window_timeouts(now)
                internal, emitted = director.run_iteration()
                iterations += 1
                if internal or emitted:
                    # Snapshot only after *productive* iterations: the engine
                    # sits at a quiescent wave boundary here, and skipping
                    # idle iterations keeps a checkpointing run's iteration
                    # sequence identical to an uncheckpointed one.
                    if self.checkpointer is not None:
                        self.checkpointer.maybe_checkpoint(self.clock.now_us)
                    continue
                # Idle: let the frontier close any passed panes first — a
                # closure is productive work the next iteration dispatches.
                consult = getattr(director, "consult_frontier", None)
                if consult is not None and consult():
                    continue
                # Fast-forward to whatever happens next.
                next_times = []
                arrival = director.next_arrival_time()
                if arrival is not None:
                    next_times.append(arrival)
                deadline = director.next_window_deadline()
                if deadline is not None:
                    next_times.append(deadline)
                if not next_times:
                    break  # fully drained: no arrivals, no pending windows
                next_time = min(next_times)
                if next_time >= horizon_us and not drain:
                    self.clock.jump_to(horizon_us)
                    break
                if next_time <= self.clock.now_us:
                    # A due timeout produced nothing schedulable; nudge forward
                    # to guarantee progress.
                    self.clock.advance(1)
                else:
                    if _obs.ENABLED:
                        _obs._TRACER.instant(
                            "runtime.idle_jump",
                            now,
                            to_us=next_time,
                            slept_us=next_time - now,
                        )
                    self.clock.jump_to(next_time)
        finally:
            if frozen_here:
                gc.unfreeze()
        self.iterations_run += iterations
        return iterations

    def run_and_wrapup(self, until_s: float, drain: bool = False) -> int:
        iterations = self.run(until_s, drain=drain)
        self.director.wrapup_all()
        return iterations

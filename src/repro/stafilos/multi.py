"""Two-level multiple-CWf scheduling (the paper's §5 future-work design).

At the low level, each workflow instance keeps its own local STAFiLOS
scheduler (its SCWF director untouched).  At the top level, a *global
scheduler* manages the workflow instances by allocating CPU capacity to
each instance's Manager and switching between workflows — here, by handing
each instance a slice of virtual time per round, proportional to its
weight (the "CPU capacity distribution policy").

:class:`ConnectionController` mirrors the proposed module for controlling
multiple workflows externally: adding, removing, pausing and resuming
instances at runtime by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..core.exceptions import SchedulerError
from ..core.timekeeper import US_PER_S
from ..simulation.clock import VirtualClock


class InstanceState(Enum):
    """Lifecycle state of a managed workflow instance."""

    RUNNING = "running"
    PAUSED = "paused"
    STOPPED = "stopped"


@dataclass
class WorkflowInstance:
    """One managed workflow: a director plus its Manager-style controls."""

    name: str
    director: object  # SCWFDirector or ThreadedCWFDirector (duck-typed)
    weight: float = 1.0
    state: InstanceState = InstanceState.RUNNING
    virtual_time_used_us: int = 0
    iterations: int = 0

    def initialize(self) -> None:
        if not getattr(self.director, "_initialized", False):
            self.director.initialize_all()

    def pause(self) -> None:
        if self.state is InstanceState.STOPPED:
            raise SchedulerError(f"instance {self.name!r} already stopped")
        self.state = InstanceState.PAUSED

    def resume(self) -> None:
        if self.state is InstanceState.STOPPED:
            raise SchedulerError(f"cannot resume stopped {self.name!r}")
        self.state = InstanceState.RUNNING

    def stop(self) -> None:
        self.state = InstanceState.STOPPED


class GlobalScheduler:
    """Top-level round-based CPU distribution across workflow instances.

    Every instance owns a private virtual clock; the global scheduler
    advances the *global* clock to the maximum instance position each
    round, granting each RUNNING instance a weighted share of the round
    quantum.  An instance that goes idle inside its grant yields the
    remainder (work-conserving).
    """

    def __init__(self, round_quantum_us: int = 100_000):
        self.round_quantum_us = round_quantum_us
        self.instances: dict[str, WorkflowInstance] = {}
        self.rounds = 0

    # ------------------------------------------------------------------
    def add(self, instance: WorkflowInstance) -> None:
        if instance.name in self.instances:
            raise SchedulerError(
                f"instance {instance.name!r} already managed"
            )
        instance.initialize()
        self.instances[instance.name] = instance

    def remove(self, name: str) -> WorkflowInstance:
        instance = self.instances.pop(name, None)
        if instance is None:
            raise SchedulerError(f"no managed instance {name!r}")
        instance.stop()
        return instance

    def get(self, name: str) -> WorkflowInstance:
        instance = self.instances.get(name)
        if instance is None:
            raise SchedulerError(f"no managed instance {name!r}")
        return instance

    # ------------------------------------------------------------------
    def _runnable(self) -> list[WorkflowInstance]:
        return [
            instance
            for instance in self.instances.values()
            if instance.state is InstanceState.RUNNING
        ]

    def run_round(self) -> int:
        """One scheduling round; returns total firings across instances."""
        runnable = self._runnable()
        if not runnable:
            return 0
        total_weight = sum(instance.weight for instance in runnable)
        fired_total = 0
        self.rounds += 1
        for instance in runnable:
            share_us = int(
                self.round_quantum_us * instance.weight / total_weight
            )
            fired_total += self._run_instance(instance, share_us)
        return fired_total

    def _run_instance(
        self, instance: WorkflowInstance, share_us: int
    ) -> int:
        director = instance.director
        clock: VirtualClock = director.clock
        grant_end = clock.now_us + share_us
        fired = 0
        while clock.now_us < grant_end:
            # The single-workflow runtime's idle rule, capped at the
            # grant: fire due window timeouts before working, and when
            # idle wake for the next arrival or window deadline.
            director.fire_window_timeouts(clock.now_us)
            internal, emitted = director.run_iteration()
            instance.iterations += 1
            fired += internal
            if internal == 0 and emitted == 0:
                wakeups = [
                    time_us
                    for time_us in (
                        director.next_arrival_time(),
                        director.next_window_deadline(),
                    )
                    if time_us is not None
                ]
                next_time = min(wakeups, default=grant_end)
                if next_time > grant_end:
                    clock.jump_to(grant_end)
                    break
                # A due timeout that produced nothing schedulable must
                # not stall the clock.
                clock.jump_to(max(next_time, clock.now_us + 1))
        instance.virtual_time_used_us = clock.now_us
        return fired

    def run(self, until_s: float, max_rounds: int = 10_000_000) -> None:
        """Rounds until every instance's clock passes the horizon."""
        horizon_us = int(until_s * US_PER_S)
        for _ in range(max_rounds):
            runnable = self._runnable()
            if not runnable:
                return
            if all(
                instance.director.clock.now_us >= horizon_us
                for instance in runnable
            ):
                return
            self.run_round()
        raise SchedulerError("global scheduler exceeded max_rounds")


class ConnectionController:
    """External command surface for multi-workflow mode (paper §5).

    Accepts textual commands — ``add``, ``remove``, ``pause``, ``resume``,
    ``list``, ``weight`` — the way the proposed ConnectionController
    listens for commands when Kepler/CONFLuEnCE starts in multi-workflow
    mode.
    """

    def __init__(self, scheduler: GlobalScheduler):
        self.scheduler = scheduler
        self.log: list[str] = []

    def command(self, line: str) -> str:
        parts = line.strip().split()
        if not parts:
            return "error: empty command"
        verb, args = parts[0].lower(), parts[1:]
        try:
            reply = self._dispatch(verb, args)
        except SchedulerError as exc:
            reply = f"error: {exc}"
        self.log.append(f"{line} -> {reply}")
        return reply

    def _dispatch(self, verb: str, args: list[str]) -> str:
        scheduler = self.scheduler
        if verb == "list":
            return ", ".join(
                f"{instance.name}({instance.state.value}, w="
                f"{instance.weight:g})"
                for instance in scheduler.instances.values()
            ) or "(none)"
        if verb == "pause" and args:
            scheduler.get(args[0]).pause()
            return f"paused {args[0]}"
        if verb == "resume" and args:
            scheduler.get(args[0]).resume()
            return f"resumed {args[0]}"
        if verb == "remove" and args:
            scheduler.remove(args[0])
            return f"removed {args[0]}"
        if verb == "weight" and len(args) == 2:
            instance = scheduler.get(args[0])
            instance.weight = float(args[1])
            return f"weight {args[0]} = {instance.weight:g}"
        return f"error: unknown command {verb!r}"

"""Synchronous Dataflow (SDF) director.

SDF governs sub-workflows whose per-firing consumption and production rates
are constant, which lets the schedule be *pre-compiled*: the director solves
the balance equations

    repetitions[src] * produce_rate(channel) ==
    repetitions[sink] * consume_rate(channel)

for the least positive integer repetition vector, orders the firings
topologically, and replays that static schedule on every iteration — the
"Pre-compiled / Topology-driven" row of the paper's Table 1.

Port rates default to 1 token per firing; set ``port.rate = n`` to declare
multi-rate behaviour.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ..core.actors import Actor
from ..core.director import Director
from ..core.exceptions import DirectorError
from ..core.ports import InputPort
from ..core.receivers import FIFOReceiver, Receiver


def _rate(port) -> int:
    rate = getattr(port, "rate", 1)
    if not isinstance(rate, int) or rate <= 0:
        raise DirectorError(f"SDF rate on {port!r} must be a positive int")
    return rate


class SDFDirector(Director):
    """Statically scheduled multirate dataflow."""

    model_name = "SDF"

    def __init__(self, iterations_per_run: int = 1):
        super().__init__()
        self._now = 0
        self.iterations_per_run = iterations_per_run
        self.repetitions: dict[str, int] = {}
        self.schedule: list[Actor] = []

    def create_receiver(self, port: InputPort) -> Receiver:
        if port.window is not None:
            raise DirectorError(
                "SDF does not support windowed inputs; use a DDF or "
                f"continuous director for port {port.full_name}"
            )
        return FIFOReceiver(port)

    def current_time(self) -> int:
        return self._now

    # ------------------------------------------------------------------
    # Schedule compilation
    # ------------------------------------------------------------------
    def attach(self, workflow) -> None:
        super().attach(workflow)
        self._compile_schedule()

    def _compile_schedule(self) -> None:
        workflow = self._require_attached()
        ratios = self._solve_balance_equations()
        denominators = [value.denominator for value in ratios.values()]
        scale = lcm(*denominators) if denominators else 1
        self.repetitions = {
            name: int(value * scale) for name, value in ratios.items()
        }
        order = workflow.graph().topological_order()
        if order is None:
            raise DirectorError(
                "SDF sub-workflows must be acyclic (no delay tokens "
                "implemented)"
            )
        self.schedule = []
        for name in order:
            actor = workflow.actors[name]
            self.schedule.extend([actor] * self.repetitions[name])

    def _solve_balance_equations(self) -> dict[str, Fraction]:
        """Propagate firing ratios over the connection graph."""
        workflow = self._require_attached()
        ratios: dict[str, Fraction] = {}
        for seed in workflow.actors:
            if seed in ratios:
                continue
            ratios[seed] = Fraction(1)
            stack = [seed]
            while stack:
                name = stack.pop()
                actor = workflow.actors[name]
                for port in actor.output_ports.values():
                    for channel in port.outgoing:
                        other = channel.sink.actor.name
                        implied = ratios[name] * Fraction(
                            _rate(channel.source), _rate(channel.sink)
                        )
                        if other in ratios:
                            if ratios[other] != implied:
                                raise DirectorError(
                                    "inconsistent SDF rates around actor "
                                    f"{other!r}: sample-rate mismatch"
                                )
                        else:
                            ratios[other] = implied
                            stack.append(other)
                for port in actor.input_ports.values():
                    for channel in port.incoming:
                        other = channel.source.actor.name
                        implied = ratios[name] * Fraction(
                            _rate(channel.sink), _rate(channel.source)
                        )
                        if other in ratios:
                            if ratios[other] != implied:
                                raise DirectorError(
                                    "inconsistent SDF rates around actor "
                                    f"{other!r}: sample-rate mismatch"
                                )
                        else:
                            ratios[other] = implied
                            stack.append(other)
        return ratios

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _can_fire(self, actor: Actor) -> bool:
        for port in actor.input_ports.values():
            receiver = port.receiver
            needed = max(
                (_rate(channel.sink) for channel in port.incoming), default=1
            )
            if receiver is None or receiver.size() < needed:
                return False
        return True

    def fire_actor(self, actor: Actor, now: int) -> bool:
        if not self._can_fire(actor):
            return False
        ctx = self.make_context(actor, now)
        staged = 0
        for name, port in actor.input_ports.items():
            needed = max(
                (_rate(channel.sink) for channel in port.incoming), default=1
            )
            for _ in range(needed):
                ctx.stage(name, port.receiver.get())
                staged += 1
        if staged:
            self.statistics.record_input(actor, staged, now)
        if not actor.prefire(ctx):
            return False
        actor.fire(ctx)
        actor.postfire(ctx)
        ctx.close()
        self.statistics.record_invocation(actor, 0)
        return True

    def run_to_quiescence(self, now: int, max_passes: int = 100_000) -> int:
        """Replay the precompiled schedule until no actor can fire."""
        self._now = max(self._now, now)
        firings = 0
        for _ in range(max_passes):
            fired_this_pass = 0
            for actor in self.schedule:
                if actor.is_source:
                    continue
                if self.fire_actor(actor, self._now):
                    fired_this_pass += 1
            firings += fired_this_pass
            if fired_this_pass == 0:
                return firings
        raise DirectorError(
            f"SDF schedule did not quiesce within {max_passes} passes"
        )

"""Dynamic Dataflow (DDF) director.

DDF governs sub-workflows whose consumption and production rates are fluid
(decision points, data-dependent fan-out).  An actor is *enabled* when at
least one of its input receivers holds a token; firing stages every
currently available item on every input, so actors with merge semantics see
all pending data.  The director repeatedly fires enabled actors until the
graph is quiescent (data-driven computation, per Table 1 of the paper).
"""

from __future__ import annotations

from ..core.actors import Actor
from ..core.director import Director
from ..core.exceptions import DirectorError
from ..core.ports import InputPort
from ..core.receivers import FIFOReceiver, Receiver, WindowedReceiver


class DDFDirector(Director):
    """Data-driven execution to quiescence; receivers may be windowed."""

    model_name = "DDF"

    def __init__(self, max_firings_per_run: int = 1_000_000):
        super().__init__()
        self._now = 0
        self._max_firings = max_firings_per_run

    def create_receiver(self, port: InputPort) -> Receiver:
        if port.window is not None:
            return WindowedReceiver(port.window, port)
        return FIFOReceiver(port)

    def current_time(self) -> int:
        return self._now

    # ------------------------------------------------------------------
    def _enabled(self, actor: Actor) -> bool:
        if actor.is_source:
            return False  # sources are pumped by the outer runtime
        return any(
            port.has_token() for port in actor.input_ports.values()
        )

    def fire_actor(self, actor: Actor, now: int) -> bool:
        """Stage one item per non-empty input and fire once; True if fired.

        One item per port keeps single-read actors loss-free; the director
        loops until quiescence, so buffered backlogs still drain fully.
        """
        ctx = self.make_context(actor, now)
        staged = 0
        for name, port in actor.input_ports.items():
            receiver = port.receiver
            if receiver is not None and receiver.has_token():
                ctx.stage(name, receiver.get())
                staged += 1
        if staged == 0:
            return False
        self.statistics.record_input(actor, staged, now)
        if not actor.prefire(ctx):
            return False
        actor.fire(ctx)
        actor.postfire(ctx)
        ctx.close()
        self.statistics.record_invocation(actor, 0)
        return True

    def run_to_quiescence(self, now: int) -> int:
        workflow = self._require_attached()
        self._now = max(self._now, now)
        firings = 0
        progressed = True
        while progressed:
            progressed = False
            for actor in workflow.actors.values():
                if not self._enabled(actor):
                    continue
                if self.fire_actor(actor, self._now):
                    firings += 1
                    progressed = True
                if firings > self._max_firings:
                    raise DirectorError(
                        f"DDF director exceeded {self._max_firings} firings; "
                        "the sub-workflow likely livelocks"
                    )
        return firings

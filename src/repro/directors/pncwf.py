"""PNCWF: the thread-based Continuous Workflow director.

This is CONFLuEnCE's original execution model (before STAFiLOS): the
director wraps **every actor in its own OS thread**, allowing pipelined
concurrent execution, and blocks a thread whenever it has no data to
consume.  Input queues are *windowed receivers*; a thread reading a timed
window waits only up to the window's timeout and then "raises the timeout
flag on the receiver and forces it to produce a window".

Resource allocation is delegated entirely to the operating system — which is
exactly the property the paper's evaluation holds against it: no margin for
QoS-based optimization.  The virtual-time analogue used by the benchmark
harness lives in :mod:`repro.simulation.threaded` (same policy, simulated
preemptive OS scheduling); this module is the *live* wall-clock engine used
by the runnable examples.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from ..core.actors import Actor, SourceActor
from ..core.director import Director
from ..core.events import CWEvent
from ..core.exceptions import DirectorError
from ..core.ports import InputPort
from ..core.receivers import Receiver, WindowedReceiver
from ..core.timekeeper import US_PER_S
from ..core.windows import Window, WindowSpec
from ..resilience import FailureAction, FaultPolicy


class BlockingWindowedReceiver(WindowedReceiver):
    """Thread-safe windowed receiver with blocking, timeout-forcing reads."""

    def __init__(self, spec: Optional[WindowSpec], port=None):
        super().__init__(spec, port)
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._closed = False

    def put(self, event: CWEvent) -> None:
        with self._available:
            super().put(event)
            if self.has_token():
                self._available.notify_all()

    def get_blocking(
        self,
        timeout_s: Optional[float],
        now_us: Optional[int] = None,
    ) -> Optional[Window]:
        """Block until a window forms.

        Only receivers whose spec declares a ``window_formation_timeout``
        force a partial window when the wait expires (the paper: the
        blocked thread "raises the timeout flag on the receiver and
        forces it to produce a window") — and only windows whose
        boundary-plus-timeout has passed in event time (*now_us*).  Plain
        count/wave windows simply report "nothing yet" so the actor
        thread re-polls.
        """
        with self._available:
            self._available.wait_for(
                lambda: self.has_token() or self._closed, timeout=timeout_s
            )
            if self.has_token():
                return super().get()
            if self._closed:
                return None
            if self.spec.timeout is not None:
                horizon = (
                    now_us - self.spec.timeout
                    if now_us is not None
                    else None
                )
                self.force_timeout(horizon)
                if self.has_token():
                    return super().get()
            return None

    def close(self) -> None:
        with self._available:
            self._closed = True
            self._available.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Checkpointable protocol (lock-guarded)
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot panes + staged events under the receiver lock.

        Actor threads park at the director's checkpoint barrier before a
        live snapshot, but the lock additionally serializes against a
        thread still blocked in :meth:`get_blocking` (the condition wait
        releases the lock, so acquisition here never deadlocks).
        """
        with self._lock:
            return super().state_dump()

    def state_restore(self, state: dict) -> None:
        """Re-apply a dump and wake any reader the new state unblocks."""
        with self._available:
            super().state_restore(state)
            if self.has_token():
                self._available.notify_all()


class _CWActorThread(threading.Thread):
    """The per-actor thread controller of the PNCWF director."""

    def __init__(self, director: "PNCWFDirector", actor: Actor):
        super().__init__(name=f"pncwf-{actor.name}", daemon=True)
        self.director = director
        self.actor = actor

    def run(self) -> None:
        actor, director = self.actor, self.director
        while not director._stopping.is_set():
            if not director._gate_check():
                return  # stop requested while parked at the barrier
            try:
                with director._track_inflight():
                    fired = director._iterate_internal(actor)
            except Exception as error:  # supervised thread loop
                if director._on_thread_failure(actor, error):
                    return  # fail-stop policy: the thread retires
                continue  # restart the loop in place
            if fired is None:
                break


class _SourceThread(threading.Thread):
    """Replays a source's arrival schedule against the wall clock."""

    def __init__(self, director: "PNCWFDirector", source: SourceActor):
        super().__init__(name=f"pncwf-src-{source.name}", daemon=True)
        self.director = director
        self.source = source

    def run(self) -> None:
        director, source = self.director, self.source
        attempt = 0
        while not director._stopping.is_set():
            if not director._gate_check():
                return  # stop requested while parked at the barrier
            next_at = source.next_arrival_time()
            if next_at is None:
                if not source.unbounded:
                    return  # finite replay: end of stream
                if director._stopping.wait(timeout=0.01):
                    return
                continue
            delay_s = (next_at - director.current_time()) / US_PER_S
            if delay_s > 0:
                if director._stopping.wait(
                    timeout=min(delay_s, 0.05) / director.time_scale
                ):
                    return
                continue
            ctx = director.make_context(source, director.current_time())
            try:
                with director._track_inflight():
                    source.pump(ctx)
                ctx.close()
                attempt = 0
            except Exception as error:  # supervised pump
                ctx.abort()
                ctx.close()
                attempt += 1
                decision = director.supervisor.on_failure(
                    source,
                    None,
                    source.peek_arrival(),
                    error,
                    attempt,
                    director.current_time(),
                )
                if decision.action is FailureAction.PROPAGATE:
                    director._record_lost_thread(source, error)
                    return  # fail-stop: the source thread retires
                if decision.action is FailureAction.RETRY:
                    wait_s = (
                        decision.backoff_us / US_PER_S / director.time_scale
                    )
                    if director._stopping.wait(timeout=wait_s):
                        return
                    continue
                # Dead-lettered: skip past the poison arrival so the pump
                # does not loop on it forever.
                source.skip_current()
                attempt = 0


class PNCWFDirector(Director):
    """Thread-per-actor continuous workflow execution (the paper baseline).

    ``time_scale`` compresses event time against the wall clock: with
    ``time_scale=100`` a workload described over 600 seconds replays in 6
    wall seconds.  Window/timeout semantics operate on event time, so the
    scale changes only how long the live run takes.
    """

    model_name = "PNCWF"

    def __init__(
        self,
        time_scale: float = 1.0,
        poll_timeout_s: float = 0.05,
        error_policy: FaultPolicy = FaultPolicy(),
    ):
        super().__init__()
        # A live continuous engine defaults to dead-lettering poison
        # events because fail-stop (``propagate=True``) would silently
        # kill the failing actor's thread instead of surfacing the
        # exception to the caller.
        self.supervise(error_policy)
        self.time_scale = time_scale
        self._poll_timeout_s = poll_timeout_s
        #: ``(actor_name, error_repr)`` for every thread that retired due
        #: to the fail-stop policy; folded into the :meth:`stop` report.
        self._lost_threads: list[tuple[str, str]] = []
        self._lost_lock = threading.Lock()
        #: The last :meth:`stop` report (``None`` before the first stop).
        self.stop_report: Optional[dict] = None
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._epoch: Optional[float] = None
        #: Engine time already elapsed before this process started — set
        #: by :meth:`state_restore` so a resumed run continues the event
        #: clock where the checkpoint left it instead of restarting at 0.
        self._resume_offset_us = 0
        #: Checkpoint pause gate: set = threads run freely; cleared =
        #: threads park at the top of their loops until the barrier lifts.
        self._pause_gate = threading.Event()
        self._pause_gate.set()
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    def create_receiver(self, port: InputPort) -> Receiver:
        return BlockingWindowedReceiver(port.window, port)

    def current_time(self) -> int:
        """Event-time 'now': scaled wall-clock since start(), plus any
        engine time inherited from a restored checkpoint."""
        if self._epoch is None:
            return self._resume_offset_us
        elapsed = time.monotonic() - self._epoch
        return self._resume_offset_us + int(
            elapsed * self.time_scale * US_PER_S
        )

    # ------------------------------------------------------------------
    # Checkpoint barrier (quiescent-point serialization for live runs)
    # ------------------------------------------------------------------
    def _gate_check(self) -> bool:
        """Park the calling thread while the barrier is down.

        Returns ``False`` when a stop was requested (the thread should
        retire) and ``True`` once the gate is open.
        """
        while not self._pause_gate.is_set():
            if self._stopping.is_set():
                return False
            self._pause_gate.wait(timeout=0.05)
        return True

    @contextmanager
    def _track_inflight(self) -> Iterator[None]:
        """Count one thread iteration so the barrier can await drain."""
        with self._inflight_cv:
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_cv:
                self._inflight -= 1
                self._inflight_cv.notify_all()

    @contextmanager
    def checkpoint_barrier(
        self, drain_timeout_s: float = 5.0
    ) -> Iterator[None]:
        """Drain the engine to a quiescent boundary for the body's duration.

        Lowers the pause gate so actor/source threads park at the top of
        their loops, then waits (up to *drain_timeout_s*) for in-flight
        iterations to finish.  A thread blocked inside a windowed read
        counts as in-flight until its poll timeout expires, so barrier
        latency is bounded by the longest receiver poll interval.  The
        gate lifts again when the ``with`` block exits, even on error.
        """
        self._pause_gate.clear()
        try:
            deadline = time.monotonic() + drain_timeout_s
            with self._inflight_cv:
                while self._inflight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._inflight_cv.wait(timeout=remaining)
            yield
        finally:
            self._pause_gate.set()

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Director-local counters + the engine-time resume offset.

        The snapshot orchestrator walks actors, receivers, the wave
        registry, the supervisor and the statistics registry separately;
        this covers only what the director itself owns.  Engine time is
        dumped as the *current* reading so a resumed live run continues
        the event clock rather than rewinding it.
        """
        with self._lost_lock:
            return {
                "lost_threads": list(self._lost_threads),
                "resume_offset_us": self.current_time(),
            }

    def state_restore(self, state: dict) -> None:
        """Re-apply a dump; must run before :meth:`start` (epoch unset)."""
        with self._lost_lock:
            self._lost_threads = [
                tuple(item) for item in state["lost_threads"]
            ]
        self._resume_offset_us = int(state["resume_offset_us"])

    # ------------------------------------------------------------------
    def _iterate_internal(self, actor: Actor) -> Optional[bool]:
        """One thread iteration; None tells the thread to retire."""
        ports = list(actor.input_ports.values())
        if not ports:
            return None
        primary = ports[0].receiver
        assert isinstance(primary, BlockingWindowedReceiver)
        timeout_s = self._read_timeout_s(primary)
        window = primary.get_blocking(timeout_s, now_us=self.current_time())
        if window is None:
            if primary.closed:
                return None
            return False
        supervisor = self.supervisor
        if supervisor.is_quarantined(actor.name):
            # Open circuit: the item bypasses execution entirely.
            supervisor.drop_quarantined(
                actor, ports[0].name, window, self.current_time()
            )
            return False
        # Drain the secondary ports up-front so a retried firing re-stages
        # exactly the items the failed attempt consumed.
        secondary: list[tuple[InputPort, object]] = []
        for port in ports[1:]:
            receiver = port.receiver
            while receiver is not None and receiver.has_token():
                secondary.append((port, receiver.get()))
        self.statistics.record_input(actor, 1, self.current_time())
        attempt = 0
        while True:
            ctx = self.make_context(actor, self.current_time())
            self._stage(ctx, ports[0], window)
            for port, item in secondary:
                self._stage(ctx, port, item)
            started = time.perf_counter_ns()
            try:
                if actor.prefire(ctx):
                    actor.fire(ctx)
                    actor.postfire(ctx)
                ctx.close()
                cost_us = (time.perf_counter_ns() - started) // 1_000
                self.statistics.record_invocation(actor, int(cost_us))
                supervisor.on_success(actor)
                return True
            except Exception as error:
                # Fault barrier: the failed firing's partial emissions are
                # discarded; the supervisor decides what happens next.
                ctx.abort()
                ctx.close()
                attempt += 1
                decision = supervisor.on_failure(
                    actor,
                    ports[0].name,
                    window,
                    error,
                    attempt,
                    self.current_time(),
                )
                if decision.action is FailureAction.PROPAGATE:
                    raise
                if decision.action is FailureAction.RETRY:
                    wait_s = decision.backoff_us / US_PER_S / self.time_scale
                    if self._stopping.wait(timeout=wait_s):
                        return None
                    continue
                # Dead-lettered by the supervisor.
                return False

    def _record_lost_thread(self, actor: Actor, error: BaseException) -> None:
        with self._lost_lock:
            self._lost_threads.append(
                (actor.name, f"{type(error).__name__}: {error}")
            )

    def _on_thread_failure(self, actor: Actor, error: BaseException) -> bool:
        """A supervised thread loop raised; True retires the thread.

        Under the fail-stop (``"raise"``) policy the exception already
        went through :meth:`FaultSupervisor.on_failure`, the thread is
        recorded as lost and retires.  Under any other policy this can
        only be an engine-machinery crash, so the loop is restarted in
        place and counted as a thread restart.
        """
        if self.fault_policy.propagate:
            self._record_lost_thread(actor, error)
            return True
        self.supervisor.on_thread_restart(actor, error, self.current_time())
        return False

    def _stage(self, ctx, port: InputPort, item) -> None:
        receiver = port.receiver
        unwrap = (
            isinstance(receiver, BlockingWindowedReceiver)
            and receiver._passthrough
            and isinstance(item, Window)
            and len(item) == 1
        )
        ctx.stage(port.name, item[0] if unwrap else item)

    def _read_timeout_s(
        self, receiver: BlockingWindowedReceiver
    ) -> Optional[float]:
        spec_timeout = receiver.spec.timeout
        if spec_timeout is None:
            return self._poll_timeout_s
        return max(spec_timeout / US_PER_S / self.time_scale, 0.001)

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def start(self) -> None:
        workflow = self._require_attached()
        if self._threads:
            raise DirectorError("PNCWF director already started")
        self._stopping.clear()
        self._epoch = time.monotonic()
        for actor in workflow.internal_actors:
            thread = _CWActorThread(self, actor)
            self._threads.append(thread)
            thread.start()
        for source in workflow.sources:
            thread = _SourceThread(self, source)
            self._threads.append(thread)
            thread.start()

    def run_for(self, event_time_s: float, checkpointer=None) -> None:
        """Block the calling thread until event time reaches the horizon.

        With a :class:`~repro.checkpoint.EngineCheckpointer`, the caller
        thread doubles as the checkpoint driver: it polls engine time and
        triggers ``maybe_checkpoint`` whenever a ``checkpoint_every``
        boundary passes (each snapshot drains through
        :meth:`checkpoint_barrier` automatically).
        """
        wall_s = event_time_s / self.time_scale
        if checkpointer is None:
            self._stopping.wait(timeout=wall_s)
            return
        deadline = time.monotonic() + wall_s
        while not self._stopping.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            if self._stopping.wait(timeout=min(remaining, 0.05)):
                return
            checkpointer.maybe_checkpoint(self.current_time())

    def stop(self, join_timeout_s: float = 2.0) -> dict:
        """Stop every thread and return the per-actor error summary.

        The report (also kept as :attr:`stop_report`) holds:

        * ``lost_threads`` — actor names whose threads retired through the
          fail-stop policy or failed to join within the timeout; a clean
          supervised run reports an empty list;
        * ``actors`` — per-actor :meth:`ActorHealth.as_dict` summaries for
          every actor that ever failed;
        * ``dead_letters`` — current depth of the dead-letter queue.
        """
        self._stopping.set()
        workflow = self._require_attached()
        for actor in workflow.actors.values():
            for port in actor.input_ports.values():
                if isinstance(port.receiver, BlockingWindowedReceiver):
                    port.receiver.close()
        unjoined: list[str] = []
        for thread in self._threads:
            thread.join(timeout=join_timeout_s)
            if thread.is_alive():
                unjoined.append(thread.name)
        self._threads.clear()
        with self._lost_lock:
            lost = [name for name, _ in self._lost_threads] + unjoined
        report = {
            "lost_threads": lost,
            "actors": self.supervisor.error_summary(),
            "dead_letters": len(self.supervisor.dead_letters),
        }
        self.stop_report = report
        return report

    def run_to_quiescence(self, now: int) -> int:
        raise DirectorError(
            "PNCWF runs free-running threads; use start()/run_for()/stop()"
        )

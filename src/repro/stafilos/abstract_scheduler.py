"""The Abstract Scheduler: the extension point of STAFiLOS.

The abstract scheduler "implements most of the basic functionality of a
scheduler but it is not a complete scheduler": it owns

* the list of the workflow's actors and a per-actor queue of ready events
  sorted by timestamp (:mod:`repro.stafilos.ready`);
* the mapping from actors to their current :class:`ActorState` plus a
  dirty flag per actor so states are re-evaluated lazily;
* the *active* set, maintained as an incrementally repaired **dispatch
  index** ordered by a policy-provided comparator key;
* the hooks the director uses to signal its state changes (start/end of a
  director iteration, start/end of an actor's invocation, source firings).

Concrete policies (QBS, RR, RB...) extend it by implementing the abstract
methods: the comparator key, the state-condition rules of Table 2, and the
end-of-iteration maintenance (re-quantification, period roll-over...).

A note on data structures: the paper uses two priority queues, and so does
this implementation — but with *incremental maintenance* instead of the
naive rescan an O(A) ``min()`` would be.  Every state-transition point
(``enqueue``/``dequeue_item``/``on_actor_fire_end``/``set_state``/
``invalidate_state``) adds the touched actor to a **dirty set** (O(1));
``get_next_actor`` first *flushes* the dirty set — re-evaluating only the
touched actors and repairing their index entries — and then selects the
minimum in O(log A) from the one
:mod:`~repro.stafilos.dispatch_index` every policy shares (a
lazy-deletion min-heap keyed by the policy's comparator; under RR's
rotation tickets it is a rotating ready-ring).  Selection is bit-identical to
the historical scan — ``min`` over the actor list equals the
``(comparator_key, actor_order)`` minimum — which the oracle property
test in ``tests/test_dispatch_index.py`` enforces.  The scan-based
selection stopped being "free" the moment workflows scaled past tens of
actors; see ``benchmarks/bench_dispatch_scaling.py`` for the measured
flat-to-logarithmic per-dispatch cost.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Optional

from ..core.actors import Actor, SourceActor
from ..core.events import CWEvent
from ..core.exceptions import SchedulerError
from ..core.statistics import StatisticsRegistry
from ..core.windows import Window
from ..observability import tracer as _obs
from .dispatch_index import LazyHeapIndex
from .ready import BacklogTally, ReadyItem, ReadyQueue
from .states import ActorState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.workflow import Workflow


class AbstractScheduler(ABC):
    """Base class every STAFiLOS scheduling policy extends."""

    #: Short policy name used in experiment reports ("QBS", "RR", ...).
    policy_name = "abstract"

    #: Whether sources belong in the dispatch index.  Policies that serve
    #: sources through the interval-regulated rotation of
    #: :meth:`get_next_actor` (QBS, RR, EDF) exclude them and set
    #: ``source_interval`` (Table 3 uses 5); policies whose comparator
    #: ranks sources together with internal actors (FIFO, RB, the
    #: default) include them.
    index_includes_sources = True

    #: Names of policy-specific *mutable* attributes the generic
    #: checkpoint dump captures verbatim (values must pickle and must not
    #: reference engine objects).  Policies with richer state (counters,
    #: buffers holding actors) additionally override
    #: :meth:`policy_state_dump` / :meth:`policy_state_restore`.
    checkpoint_attrs: tuple = ()

    def __init__(self):
        self.workflow: Optional["Workflow"] = None
        self.statistics: Optional[StatisticsRegistry] = None
        self.actors: list[Actor] = []
        self.sources: list[SourceActor] = []
        self.ready: dict[str, ReadyQueue] = {}
        self.states: dict[str, ActorState] = {}
        #: Per-actor flag: False means the state must be re-evaluated.
        self.state_valid: dict[str, bool] = {}
        self._now = 0
        #: Count of internal (non-source) invocations.
        self.internal_firings = 0
        # ---- source regulation, kept by the fire-end and iteration-end
        # hooks (policies name what they read of it in
        # ``checkpoint_attrs``) ------------------------------------------
        #: Sources that already fired this iteration/period.
        self._fired_sources: set[str] = set()
        #: Internal invocations since the last source firing.
        self._internal_since_source = 0
        #: Where the next scan for a runnable source starts.
        self._source_rotation = 0
        #: Optional load-shedding policy (see repro.overload.shedding).
        self.shedder = None
        #: Optional admission gate (see repro.overload.controller): when
        #: set, its ``pump_allowance(source, now)`` caps source pumping —
        #: an allowance of 0 makes the source not-runnable this instant.
        self.admission_gate = None
        # ---- dispatch index state -----------------------------------
        #: Actor names whose state/key may have changed since the last
        #: index flush.  Adding is O(1); ``get_next_actor`` drains it.
        self._index_dirty: set[str] = set()
        #: Tie-break: position in the actor list (mirrors the historical
        #: ``min()``-returns-first-minimum semantics).
        self._actor_order: dict[str, int] = {}
        self._actors_by_name: dict[str, Actor] = {}
        self._index = None
        #: O(1) backlog accounting, kept exact by the ready queues.
        self._tally = BacklogTally()

    # ------------------------------------------------------------------
    # Initialization (invoked by the SCWF director)
    # ------------------------------------------------------------------
    def initialize(
        self, workflow: "Workflow", statistics: StatisticsRegistry
    ) -> None:
        self.workflow = workflow
        self.statistics = statistics
        self.actors = list(workflow.actors.values())
        self.sources = []
        self._actor_order = {
            actor.name: order for order, actor in enumerate(self.actors)
        }
        self._actors_by_name = {actor.name: actor for actor in self.actors}
        self._tally = BacklogTally()
        for actor in self.actors:
            self.ready[actor.name] = ReadyQueue(self._tally)
            self.states[actor.name] = ActorState.INACTIVE
            # Invalid until first queried: the policy's Table 2 rules
            # decide the real initial state once quanta etc. exist.
            self.state_valid[actor.name] = False
        for source in workflow.sources:
            self.register_source(source)
        self._index = LazyHeapIndex()
        self._index_dirty = set(self._actor_order)
        self.on_initialize()

    def register_source(self, source: SourceActor) -> None:
        """Sources are registered so policies can treat them specially."""
        self.sources.append(source)

    def on_initialize(self) -> None:
        """Policy hook: runs once after the actor lists are built."""

    # ------------------------------------------------------------------
    # Event intake (invoked by TM windowed receivers via the director)
    # ------------------------------------------------------------------
    def enqueue(
        self, actor: Actor, port_name: str, item: Window | CWEvent
    ) -> None:
        """A produced window/event becomes ready work for *actor*."""
        queue = self.ready.get(actor.name)
        if queue is None:
            raise SchedulerError(
                f"event enqueued for unknown actor {actor.name!r}"
            )
        self.admit(actor, queue, port_name, item)
        # ``invalidate_state(actor)``, inline: this runs once per hop.
        self.state_valid[actor.name] = False
        self._index_dirty.add(actor.name)
        if _obs.ENABLED:
            _obs._TRACER.counter(
                "sched.queue_depth", self._now, len(queue), actor.name
            )
        if self.shedder is not None:
            self.shedder.enforce(self)

    def enqueue_batch(
        self, actor: Actor, port_name: str, items: "list[Window | CWEvent]"
    ) -> None:
        """A train of produced windows/events becomes ready work for *actor*.

        Equivalent to calling :meth:`enqueue` once per item, but the queue
        lookup, state invalidation and queue-depth trace counter are paid
        once per train.  With a load shedder attached the per-item path is
        kept verbatim — the shedder observes (and may act on) every single
        admission, and that interleaving is part of its contract.
        """
        if not items:
            return
        if self.shedder is not None:
            for item in items:
                self.enqueue(actor, port_name, item)
            return
        queue = self.ready.get(actor.name)
        if queue is None:
            raise SchedulerError(
                f"event enqueued for unknown actor {actor.name!r}"
            )
        self.admit_batch(actor, queue, port_name, items)
        self.state_valid[actor.name] = False
        self._index_dirty.add(actor.name)
        if _obs.ENABLED:
            _obs._TRACER.counter(
                "sched.queue_depth", self._now, len(queue), actor.name
            )

    def admit(
        self,
        actor: Actor,
        queue: ReadyQueue,
        port_name: str,
        item: Window | CWEvent,
    ) -> None:
        """Policy hook for event admission; default: straight to the queue.

        The Rate-Based scheduler overrides this to hold events arriving
        mid-period in a buffer until the period rolls over.
        """
        queue.push(port_name, item)

    def admit_batch(
        self,
        actor: Actor,
        queue: ReadyQueue,
        port_name: str,
        items: "list[Window | CWEvent]",
    ) -> None:
        """Batch admission; must match a per-item :meth:`admit` loop.

        The default implementation bulk-pushes only when the policy kept
        the stock ``admit`` — a policy that overrides ``admit`` without
        overriding this gets the safe per-item loop.
        """
        if type(self).admit is AbstractScheduler.admit:
            queue.push_batch(port_name, items)
        else:
            for item in items:
                self.admit(actor, queue, port_name, item)

    def dequeue_item(self, actor: Actor) -> Optional[ReadyItem]:
        """Pop the next ready item for *actor* (director staging)."""
        queue = self.ready[actor.name]
        item = queue.pop()
        self.invalidate_state(actor)
        if _obs.ENABLED and item is not None:
            _obs._TRACER.counter(
                "sched.queue_depth", self._now, len(queue), actor.name
            )
        return item

    def ready_count(self, actor: Actor) -> int:
        return len(self.ready[actor.name])

    def total_backlog(self) -> int:
        """Ready items across every actor — O(1), incrementally counted."""
        return self._tally.items

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def invalidate_state(self, actor: Actor) -> None:
        self.state_valid[actor.name] = False
        self._index_dirty.add(actor.name)

    def state_of(self, actor: Actor) -> ActorState:
        """Current state, re-evaluated via the policy rules when stale."""
        if not self.state_valid[actor.name]:
            previous = self.states[actor.name]
            state = self.evaluate_state(actor)
            self.states[actor.name] = state
            self.state_valid[actor.name] = True
            if state is not previous:
                if _obs.ENABLED:
                    _obs._TRACER.instant(
                        "sched.state",
                        self._now,
                        actor.name,
                        frm=previous.value,
                        to=state.value,
                    )
        return self.states[actor.name]

    def set_state(self, actor: Actor, state: ActorState) -> None:
        previous = self.states[actor.name]
        self.states[actor.name] = state
        self.state_valid[actor.name] = True
        self._index_dirty.add(actor.name)
        if state is not previous:
            if _obs.ENABLED:
                _obs._TRACER.instant(
                    "sched.state",
                    self._now,
                    actor.name,
                    frm=previous.value,
                    to=state.value,
                )

    @abstractmethod
    def evaluate_state(self, actor: Actor) -> ActorState:
        """The Table 2 state-condition rules of the concrete policy."""

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    @abstractmethod
    def comparator_key(self, actor: Actor) -> Any:
        """Ordering key of the active queue (smaller = scheduled first)."""

    def active_actors(self) -> list[Actor]:
        return [
            actor
            for actor in self.actors
            if self.state_of(actor) is ActorState.ACTIVE
        ]

    def waiting_actors(self) -> list[Actor]:
        return [
            actor
            for actor in self.actors
            if self.state_of(actor) is ActorState.WAITING
        ]

    # ------------------------------------------------------------------
    # The incrementally maintained dispatch index
    # ------------------------------------------------------------------
    def _mark_index_dirty_all(self) -> None:
        """Refresh every index entry (e.g. after a bulk re-keying).

        Unlike :meth:`invalidate_state` this does *not* discard cached
        states — only the comparator keys are recomputed at the next
        flush (used by RB when its dynamic rates are re-evaluated).
        """
        self._index_dirty.update(self._actor_order)

    def _flush_index(self) -> None:
        """Drain the dirty set, repairing the affected index entries.

        Dirty actors are processed in actor-list order so lazy state
        re-evaluation (and its trace events) happens in the same order
        the historical full scan used.
        """
        dirty = self._index_dirty
        if not dirty:
            return
        if len(dirty) > 1:
            names = sorted(dirty, key=self._actor_order.__getitem__)
        else:
            names = list(dirty)
        dirty.clear()
        index = self._index
        include_sources = self.index_includes_sources
        for name in names:
            actor = self._actors_by_name.get(name)
            if actor is None:  # pragma: no cover - defensive
                continue
            if actor.is_source and not include_sources:
                continue
            index.update(
                name,
                self.comparator_key(actor)
                if self.state_of(actor) is ActorState.ACTIVE
                else None,
                self._actor_order[name],
            )

    def _peek_indexed(self) -> Optional[Actor]:
        """The minimum-key ACTIVE actor per the index, or ``None``."""
        if self._index is None:  # not initialized yet
            return None
        self._flush_index()
        name = self._index.peek()
        if name is None:
            return None
        return self._actors_by_name[name]

    def get_next_actor(self) -> Optional[Actor]:
        """The next actor to fire, or ``None`` to end the iteration.

        The minimum-comparator-key ACTIVE actor, served from the dispatch
        index in O(log A).  Where sources stay out of the index, they are
        "scheduled independently at regular intervals" (the paper): a
        runnable source preempts once ``source_interval`` internal
        invocations passed since the last source firing, or when no
        internal actor is active.
        """
        actor = self._peek_indexed()
        if self.index_includes_sources:
            if actor is None:
                return self.on_active_queue_empty()
            return actor
        if (
            actor is None
            or self._internal_since_source >= self.source_interval
        ):
            source = self._next_runnable_source()
            if source is not None:
                return source
        return actor

    def _next_runnable_source(self) -> Optional[SourceActor]:
        """The first ACTIVE source with due work, scanning round-robin
        from the rotation cursor (which moves past the one returned)."""
        count = len(self.sources)
        for offset in range(count):
            source = self.sources[(self._source_rotation + offset) % count]
            if (
                self.state_of(source) is ActorState.ACTIVE
                and self.source_has_work(source, self._now)
            ):
                self._source_rotation = (
                    self._source_rotation + offset + 1
                ) % count
                return source
        return None

    def on_active_queue_empty(self) -> Optional[Actor]:
        """Hook: last chance to produce an actor before the iteration ends."""
        return None

    # ------------------------------------------------------------------
    # Event-train quantum accounting
    # ------------------------------------------------------------------
    def continue_train(
        self, actor: Actor, spent_us: int, items: int, now: int
    ) -> bool:
        """May the director re-dispatch *actor* without a fresh decision?

        Asked after every item of a train.  A holding train settles
        once, not per item, so the answer comes from its running tally:
        *items* items of *actor* have fired (or been dropped) since the
        last :meth:`on_actor_fire_end`, costing *spent_us* between them,
        and the last of them ended at engine time *now* (``items == 0``:
        everything is settled, and *now* is not read).  The policy must
        answer as if ``on_actor_fire_end(actor, spent_us, now, items)``
        had already run.

        Exactness contract: return ``True`` **only** when
        :meth:`get_next_actor` would certainly return *actor* — and the
        skipped call would have had no policy side effects.  ``False``
        merely means "consult me": the director settles the train,
        delivers what it held and calls :meth:`get_next_actor` for the
        authoritative (and possibly identical) decision, so a
        conservative ``False`` can never change behaviour, only forgo
        batching.  Policies that can read their quantum accounting in
        O(1) override this; the default always defers to the full
        selection path, and the director then delivers every item's
        emissions as it ends.
        """
        return False

    # ------------------------------------------------------------------
    # Director signals
    # ------------------------------------------------------------------
    def on_iteration_start(self, now: int) -> None:
        self._now = now
        if self.shedder is not None:
            self.shedder.shed_sources(self, now)
        # The clock may have jumped while the engine was idle; source
        # runnability depends on "now", so those states are always stale.
        for source in self.sources:
            self.invalidate_state(source)

    def on_iteration_end(self, now: int) -> None:
        """End of a director iteration (maintenance: re-quantify etc.)."""
        self._now = now
        self._fired_sources.clear()
        self._internal_since_source = 0

    def on_actor_fire_start(self, actor: Actor, now: int) -> None:
        self._now = now

    def on_actor_fire_end(
        self, actor: Actor, cost_us: int, now: int, items: int = 1
    ) -> None:
        """*actor* finished firing at *now*.

        A source reports each pump.  An internal actor reports each
        item, or — in a train that holds, which only a policy
        overriding :meth:`continue_train` sees — once per settlement:
        *items* items (fired, dead-lettered or dropped by an open
        circuit) cost *cost_us* between them, the last ending at *now*.
        Such a policy must treat that as *items* one-item reports with
        the same total, as this base method does (the
        ``continue_train`` tally is the same sum).
        """
        self._now = now
        if actor.is_source:
            self._fired_sources.add(actor.name)
            self._internal_since_source = 0
        else:
            self.internal_firings += items
            self._internal_since_source += items
        self.invalidate_state(actor)

    def source_has_work(self, source: SourceActor, now: int) -> bool:
        if source.pending_arrivals(now) <= 0:
            return False
        gate = self.admission_gate
        if gate is not None and gate.pump_allowance(source, now) == 0:
            return False
        return True

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def policy_state_dump(self) -> dict:
        """Policy-specific mutable state (default: ``checkpoint_attrs``)."""
        return {attr: getattr(self, attr) for attr in self.checkpoint_attrs}

    def policy_state_restore(self, state: dict) -> None:
        """Re-apply :meth:`policy_state_dump` output onto the policy."""
        for attr in self.checkpoint_attrs:
            setattr(self, attr, state[attr])

    def state_dump(self) -> dict:
        """Snapshot the scheduler (Checkpointable protocol).

        Captures the per-actor ready queues, the cached state machine
        (states + validity flags — preserving them keeps lazy
        re-evaluation order, and therefore dispatch decisions, exactly
        as they would have been without a checkpoint), the engine-time
        cursor, and the policy's own state.  The dispatch index is
        *derived* data and is deliberately absent: restore rebuilds it
        empty and marks every actor dirty, and the oracle-verified
        index invariant (selection ≡ min over ``(comparator_key,
        actor_order)``) guarantees the rebuilt index dispatches
        identically.
        """
        return {
            "now": self._now,
            "internal_firings": self.internal_firings,
            "ready": {
                name: queue.snapshot_items()
                for name, queue in self.ready.items()
            },
            "states": {
                name: state.value for name, state in self.states.items()
            },
            "state_valid": dict(self.state_valid),
            "policy": self.policy_state_dump(),
        }

    def state_restore(self, state: dict) -> None:
        """Re-apply a dump onto a freshly :meth:`initialize`-d scheduler."""
        from ..core.exceptions import CheckpointError

        self._now = int(state["now"])
        self.internal_firings = int(state["internal_firings"])
        for name, items in state["ready"].items():
            queue = self.ready.get(name)
            if queue is None:
                raise CheckpointError(
                    f"cannot restore ready queue for unknown actor {name!r} "
                    "(was the workflow rebuilt with the same builder?)"
                )
            queue.restore_items(items)
        for name, value in state["states"].items():
            self.states[name] = ActorState(value)
        self.state_valid = dict(state["state_valid"])
        self.policy_state_restore(state["policy"])
        # The index holds derived entries only: rebuild it empty and let
        # the next flush repopulate it from the restored states/keys.
        self._index = LazyHeapIndex()
        self._index_dirty = set(self._actor_order)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line configuration summary for experiment reports."""
        return self.policy_name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"

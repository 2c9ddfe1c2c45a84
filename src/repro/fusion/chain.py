"""Fused operator chains: one dispatch per linear map-only segment.

The SCWF hot path pays a full scheduling round-trip per actor firing:
``get_next_actor`` → dispatch overhead → stage → fire → emit → enqueue
downstream.  For a *linear map chain* — a run of single-in/single-out
:class:`~repro.core.actors.MapActor` hops with no windows, no boundary
ports and no expired-item routes — that round-trip buys nothing: every
intermediate event is produced by one hop and consumed by exactly the
next, so the whole segment can run as **one composed firing** that
traverses the chain in memory with zero intermediate queue churn.

:func:`detect_chains` finds the maximal fusable segments over
``Workflow.graph()``; :func:`fuse_workflow` splices each into a
:class:`FusedChain` — the member actors leave the workflow, the head's
incoming and the tail's outgoing channels are re-pointed at the fused
actor, and the graph's structure version advances so every
structure-keyed cache (topology, RB priorities, checkpoint
fingerprints) sees the rewrite.

Semantics are preserved exactly, not approximately:

* **Waves** — each hop applies the :class:`~repro.core.waves.WaveScope`
  arithmetic per consumed event (inlined on the hot path): children get
  ``w.1 .. w.n`` tags and the last child of every sub-wave is marked
  ``last_in_wave``, bit-identically to the unfused per-firing scoping.
* **Timestamps** — children inherit the consumed event's (external)
  timestamp, as ``ctx.send`` does for map actors.
* **Statistics** — per-hop invocation costs, input/output token counts
  and therefore selectivity are still attributed to the *constituent*
  actors (the registry is keyed by name), so shedding, QoS control and
  the Rate-Based scheduler keep reading truthful per-actor numbers.
* **Faults** — the whole chain is one fault barrier: a hop that raises
  discards the chain's partial outputs and charges; the consumed head
  event is retried or dead-lettered under the director's normal policy.

What *does* change: intermediate events are never admitted to ready
queues, so ``total_events_admitted`` and the members' input-rate *time
series* (which are stamped with engine time at admission) reflect the
fused topology.  Sink outputs, wave tags and every count-based
statistic are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.actors import Actor, MapActor
from ..core.events import CWEvent
from ..core.exceptions import ActorError
from ..core.waves import WaveTag
from ..observability import tracer as _obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.workflow import Workflow


class _CostProbe:
    """Minimal stand-in for a FiringContext in cost-model calls."""

    __slots__ = ("inputs_consumed", "outputs_produced")

    def __init__(self, inputs_consumed: int, outputs_produced: int):
        self.inputs_consumed = inputs_consumed
        self.outputs_produced = outputs_produced


@dataclass(frozen=True)
class FusionReport:
    """What :func:`fuse_workflow` did, for logs and assertions."""

    #: Member actor names per fused chain, in workflow order.
    chains: tuple[tuple[str, ...], ...] = ()

    @property
    def fused_actors(self) -> int:
        return sum(len(chain) for chain in self.chains)

    def __bool__(self) -> bool:
        return bool(self.chains)


class FusedChain(Actor):
    """A linear run of map actors compiled into one composed firing.

    The fused actor takes the *head* member's name (so admission-side
    statistics keep landing on the head's record) and priority.  Firing
    reads one staged event and pushes it through every hop in memory;
    the per-hop charges and the final hop's outputs are buffered until
    the director calls :meth:`flush_fused_charges` after a successful
    firing — a hop that raises leaves nothing half-applied
    (:meth:`discard_fused_charges`).
    """

    #: Everything beyond the structural attributes is either rebuilt by
    #: :func:`fuse_workflow` + :meth:`bind_runtime` on recovery or is
    #: transient intra-firing state that is empty at every checkpoint
    #: barrier (barriers run between director iterations, and charges
    #: never outlive the dispatch that accrued them).
    checkpoint_exclude = frozenset(
        {
            "_members",
            "_member_names",
            "_hop_fns",
            "_hop_charges",
            "_hop_stats",
            "_hop_inputs",
            "_hop_out_ts",
            "_hop_costs",
            "_finals",
            "_hop_plan",
            "_flush_plan",
            "_pending_cost",
            "_bound",
            "_cost_model",
            "_statistics",
        }
    )

    def __init__(self, members: "list[Actor]"):
        if len(members) < 2:
            raise ActorError("a fused chain needs at least two members")
        head = members[0]
        super().__init__(head.name)
        self.add_input("in")
        self.add_output("out")
        self.priority = head.priority
        self._members: list[Actor] = list(members)
        self._member_names = tuple(m.name for m in members)
        self._hop_fns = [m._fn for m in members]
        # Runtime bindings (filled by bind_runtime)
        self._bound = False
        self._cost_model = None
        self._statistics = None
        self._hop_charges: list[Optional[tuple]] = []
        self._hop_stats: list = []
        # Per-dispatch tallies, flushed or discarded by the director.
        # Interior hops never materialize CWEvents (see ``_process``), so
        # the output tally keeps only what flush needs: timestamps.
        hops = len(members)
        self._hop_inputs = [0] * hops
        self._hop_out_ts: list[list[int]] = [[] for _ in range(hops)]
        self._hop_costs: list[list[int]] = [[] for _ in range(hops)]
        self._finals: list[CWEvent] = []
        self._pending_cost = 0
        # Prebuilt per-hop tuples (see bind_runtime) so the hot loops
        # walk one list instead of indexing five parallel arrays.
        self._hop_plan: list = []
        self._flush_plan: list = []

    # ------------------------------------------------------------------
    @property
    def members(self) -> tuple[Actor, ...]:
        return tuple(self._members)

    @property
    def member_names(self) -> tuple[str, ...]:
        return self._member_names

    def bind_runtime(self, director) -> None:
        """Prebind the cost model and per-member statistics records.

        Called by the SCWF director from ``initialize_all``; registers
        every member in the statistics registry so per-hop attribution
        has a record from the first firing, and resolves each member's
        inline charge (``CostModel.invocation_charge``) once instead of
        per event.
        """
        cost_model = director.cost_model
        statistics = director.statistics
        self._cost_model = cost_model
        self._statistics = statistics
        charge_fn = getattr(cost_model, "invocation_charge", None)
        self._hop_charges = [
            None if charge_fn is None else charge_fn(member)
            for member in self._members
        ]
        self._hop_stats = [
            statistics.register(member) for member in self._members
        ]
        # Hot-loop plans: one tuple per hop, resolved once.  ``_process``
        # and ``flush_fused_charges`` run per consumed event, so every
        # attribute walk or registry dict lookup hoisted here is paid
        # once per bind instead of once per hop per event.  A hop
        # consumes one event per firing, so its charge starts from
        # ``base + per_input_us`` (the charge's first addition); ``None``
        # there keeps the ``invocation_cost`` call.
        self._hop_plan = []
        for fn, charge, member, costs, out_ts in zip(
            self._hop_fns,
            self._hop_charges,
            self._members,
            self._hop_costs,
            self._hop_out_ts,
        ):
            if charge is None:
                charge = (None, 0, 0, None, 0.0, 0.0, None)
            base, per_input, *rest = charge
            first = None if base is None else base + per_input
            self._hop_plan.append((fn, first, *rest, member, costs, out_ts))
        self._flush_plan = [
            (
                stats.record_invocation,
                # The head's inputs are recorded at admission time, like
                # any scheduled actor's; only interior hops attribute
                # their (queue-less) inputs here.
                stats.record_input if hop else None,
                stats.record_output,
                self._hop_costs[hop],
                self._hop_out_ts[hop],
            )
            for hop, stats in enumerate(self._hop_stats)
        ]
        self._bound = True

    # ------------------------------------------------------------------
    # Firing (both entry points keep the trivial base-class
    # prefire/postfire, which is what legalizes the director's
    # fire_batch substitution on the train path).
    # ------------------------------------------------------------------
    def fire(self, ctx) -> None:
        item = ctx.read("in")
        if item is None:
            return
        self._process(item)

    def fire_batch(self, ctx) -> None:
        while True:
            item = ctx.read("in")
            if item is None:
                return
            self._process(item)

    def _process(self, item) -> None:
        """Push one consumed event through every hop, in memory.

        Level by level: hop *i*'s outputs are hop *i+1*'s inputs, in
        production order — exactly the FIFO order the unfused engine's
        per-hop ready queues would impose on a linear chain.  Each
        consumed event gets its own wave scope (one unfused firing
        consumes exactly one event), so child tags and ``last_in_wave``
        marks are bit-identical.
        """
        if not self._bound:
            raise ActorError(
                f"fused chain {self.name!r} fired before bind_runtime "
                "(is the workflow driven by an SCWF director?)"
            )
        cost_model = self._cost_model
        obs_on = _obs.ENABLED
        hop_inputs = self._hop_inputs
        plan = self._hop_plan
        last = len(plan) - 1
        finals = self._finals
        total = 0
        # Interior events travel as plain ``(value, timestamp, path)``
        # triples: only the next hop ever reads them, so materializing a
        # CWEvent (token + tag objects, a global seq draw) per hop is
        # pure allocation overhead.  ``seq`` exists to tie-break events
        # with an *identical* (timestamp, wave) key, which distinct
        # events never share — skipping the interior draws is invisible
        # to ordering, waves, statistics and checkpoints.  Real events
        # (with real WaveTags) are built only at the final hop, where
        # they leave the chain.  Wave arithmetic is inlined from
        # WaveScope: the i-th (1-based) child of ``path`` is
        # ``path + (i,)`` and the last child carries the last_in_wave
        # mark, exactly as scope close() would set it.
        events = ((item.token.value, item.timestamp, item.wave.path),)
        for hop, (
            fn, first, per_output, scale, low, width, draw,
            member, costs, out_ts,
        ) in enumerate(plan):
            if not events:
                break
            hop_inputs[hop] += len(events)
            ts_append = out_ts.append
            produced: list = []
            append = (finals if hop == last else produced).append
            materialize = hop == last
            for value, ts, path in events:
                # Chain members never see windows (``_eligible`` rejects
                # windowed ports), so the payload is always the value.
                result = fn(value)
                if result is None:
                    n_out = 0
                elif isinstance(result, list):
                    n_out = len(result)
                    index = 0
                    if materialize:
                        for part in result:
                            index += 1
                            append(
                                CWEvent(
                                    part,
                                    ts,
                                    WaveTag(path + (index,)),
                                    index == n_out,
                                )
                            )
                            ts_append(ts)
                    else:
                        for part in result:
                            index += 1
                            append((part, ts, path + (index,)))
                            ts_append(ts)
                else:
                    if materialize:
                        append(
                            CWEvent(result, ts, WaveTag(path + (1,)), True)
                        )
                    else:
                        append((result, ts, path + (1,)))
                    ts_append(ts)
                    n_out = 1
                if obs_on and n_out:
                    _obs._TRACER.instant(
                        "wave.subwave_complete",
                        ts,
                        wave=".".join(map(str, path)),
                        produced=n_out,
                    )
                if first is not None:
                    # ``CostModel.invocation_charge``, inline.
                    cost = first + per_output * n_out
                    if draw is not None:
                        cost = round(
                            cost * scale * (1.0 + (low + width * draw()))
                        )
                    elif scale is not None:
                        cost = round(cost * scale)
                    if cost < 1:
                        cost = 1
                else:
                    cost = cost_model.invocation_cost(
                        member, _CostProbe(1, n_out)
                    )
                costs.append(cost)
                total += cost
            events = produced
        self._pending_cost += total

    # ------------------------------------------------------------------
    # Charge settlement (director side)
    # ------------------------------------------------------------------
    def take_pending_cost(self) -> int:
        """The accrued virtual cost of the last firing; zeroed on read."""
        cost = self._pending_cost
        self._pending_cost = 0
        return cost

    def flush_fused_charges(self, now_us: int) -> None:
        """Publish the buffered firing: emit finals, attribute per hop.

        Called by the director *after* a successful firing and after the
        clock advanced by :meth:`take_pending_cost` — mirroring the
        unfused order in which downstream admission happens at
        post-charge engine time.  Final-hop events broadcast through the
        fused output port (the tail's re-pointed channels); every hop's
        outputs are recorded under the member's own name, coalesced per
        run of equal timestamps exactly like ``DeliveryRoute.deliver_train``.
        """
        finals = self._finals
        if finals:
            port = self.output_ports["out"]
            if _obs.ENABLED:
                _obs._TRACER.instant(
                    "fused.emit",
                    finals[0].timestamp,
                    self.name,
                    count=len(finals),
                    hops=len(self._members),
                )
            if len(finals) == 1:
                port.broadcast(finals[0])
            else:
                port.broadcast_batch(finals)
            finals.clear()
        # Per-hop attribution through the prebound ActorStats methods.
        # The registry-level record_input/record_output wrappers only add
        # a name lookup plus the ``_last_now_us`` high-water mark; the
        # mark is a running max, so deferring it to one write at the end
        # is value-identical (and it is checkpointed, so it must be).
        statistics = self._statistics
        last_now = statistics._last_now_us
        hop_inputs = self._hop_inputs
        for hop, (rec_inv, rec_in, rec_out, costs, out_ts) in enumerate(
            self._flush_plan
        ):
            for cost in costs:
                rec_inv(cost)
            costs.clear()
            count = hop_inputs[hop]
            if count:
                hop_inputs[hop] = 0
                if rec_in is not None:
                    if now_us > last_now:
                        last_now = now_us
                    rec_in(count, now_us)
            n = len(out_ts)
            if n == 1:
                # Common case (selectivity 1): one output, one run.
                ts = out_ts[0]
                if ts > last_now:
                    last_now = ts
                rec_out(1, ts)
                out_ts.clear()
            elif n:
                # Coalesce per run of equal timestamps, exactly like
                # ``DeliveryRoute.deliver_train``.
                i = 0
                while i < n:
                    ts = out_ts[i]
                    j = i + 1
                    while j < n and out_ts[j] == ts:
                        j += 1
                    if ts > last_now:
                        last_now = ts
                    rec_out(j - i, ts)
                    i = j
                out_ts.clear()
        statistics._last_now_us = last_now

    def discard_fused_charges(self) -> None:
        """Fault barrier: forget the failed firing's partial effects."""
        self._pending_cost = 0
        self._reset_tallies()

    def _reset_tallies(self) -> None:
        self._finals.clear()
        for hop in range(len(self._members)):
            self._hop_inputs[hop] = 0
            self._hop_out_ts[hop].clear()
            self._hop_costs[hop].clear()

    def __repr__(self) -> str:
        return f"FusedChain({' -> '.join(self._member_names)})"


# ----------------------------------------------------------------------
# Chain detection
# ----------------------------------------------------------------------
def _eligible(actor: Actor) -> bool:
    """May *actor* be a member of a fused chain?

    Exact-type map actors only (subclasses may override ``fire``), with
    the stock single ``in``/``out`` ports, no window clause, no
    composite-boundary feeding and no expired-item involvement — the
    wave-sensitive and schedule-sensitive features fusion must not
    absorb.
    """
    if type(actor) is not MapActor:
        return False
    port = actor.input_ports.get("in")
    if port is None or set(actor.input_ports) != {"in"}:
        return False
    if set(actor.output_ports) != {"out"}:
        return False
    if port.window is not None or port.boundary or port.expired_to:
        return False
    return True


def _linked(a: Actor, b: Actor) -> bool:
    """Is ``a → b`` an exclusive edge (a's only consumer, b's only feed)?"""
    out = a.output_ports["out"]
    if len(out.outgoing) != 1:
        return False
    sink = out.outgoing[0].sink
    if sink is not b.input_ports["in"]:
        return False
    return len(sink.incoming) == 1


def detect_chains(workflow: "Workflow") -> list[list[Actor]]:
    """Maximal fusable runs (length ≥ 2), in workflow insertion order.

    A run is a sequence of eligible map actors where each consecutive
    pair is joined by an exclusive single channel.  Cycles of eligible
    actors have no head and are skipped entirely (fusing a loop would
    deadlock its own feedback edge).
    """
    eligible = [a for a in workflow.actors.values() if _eligible(a)]
    eligible_set = {id(a) for a in eligible}
    next_of: dict[int, Actor] = {}
    has_pred: set[int] = set()
    for actor in eligible:
        out = actor.output_ports["out"]
        if len(out.outgoing) != 1:
            continue
        successor = out.outgoing[0].sink.actor
        if (
            successor is not actor
            and id(successor) in eligible_set
            and _linked(actor, successor)
        ):
            next_of[id(actor)] = successor
            has_pred.add(id(successor))
    chains: list[list[Actor]] = []
    for actor in eligible:
        if id(actor) in has_pred:
            continue
        chain = [actor]
        seen = {id(actor)}
        cursor = actor
        while id(cursor) in next_of:
            cursor = next_of[id(cursor)]
            if id(cursor) in seen:  # pragma: no cover - cycle guard
                break
            seen.add(id(cursor))
            chain.append(cursor)
        if len(chain) >= 2:
            chains.append(chain)
    return chains


def fuse_workflow(workflow: "Workflow") -> FusionReport:
    """Splice every detected chain into a :class:`FusedChain` in place.

    Must run *before* a director attaches (receivers are created at
    attach time, and members leave the workflow here).  Safe to call on
    a workflow with nothing to fuse (returns an empty report) and
    idempotent — fused actors are not themselves eligible members.
    """
    chains = detect_chains(workflow)
    if not chains:
        return FusionReport()
    for members in chains:
        head, tail = members[0], members[-1]
        fused = FusedChain(members)
        # Drop the intra-chain channels from the graph and the ports.
        intra = set()
        for a, b in zip(members, members[1:]):
            channel = a.output_ports["out"].outgoing[0]
            intra.add(channel)
            a.output_ports["out"].outgoing.clear()
            b.input_ports["in"].incoming.clear()
        workflow.channels = [
            c for c in workflow.channels if c not in intra
        ]
        # Re-point the boundary channels at the fused actor's ports.
        fused_in = fused.input_ports["in"]
        for channel in list(head.input_ports["in"].incoming):
            channel.sink = fused_in
            fused_in.incoming.append(channel)
        head.input_ports["in"].incoming.clear()
        fused_out = fused.output_ports["out"]
        for channel in list(tail.output_ports["out"].outgoing):
            channel.source = fused_out
            fused_out.outgoing.append(channel)
        tail.output_ports["out"].outgoing.clear()
        # Members leave the actor table; the fused actor takes the
        # head's slot (and name).  Bump the structure version by hand —
        # removal has no public API, and every structure-keyed cache
        # (graph, topology, RB priorities) must see the rewrite.
        for member in members:
            del workflow.actors[member.name]
        workflow._structure_version += 1
        workflow.add(fused)
    return FusionReport(
        chains=tuple(
            tuple(m.name for m in members) for members in chains
        )
    )

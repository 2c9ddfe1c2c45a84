"""The snapshot orchestrator: capture and restore a whole engine.

A checkpoint separates *structure* from *data*.  Structure — the workflow
graph, actor lambdas, window clauses, the scheduling policy — is code and
configuration; it is rebuilt by re-running the original workflow builder,
never serialized.  Data — queue contents, window panes, source cursors,
RNG states, statistics — is what :func:`capture_snapshot` collects by
walking every engine component that implements the
:class:`~repro.checkpoint.protocol.Checkpointable` protocol:

* the virtual clock and the cost model's RNG (scheduled runs);
* every actor's user state (:meth:`~repro.core.actors.Actor.state_dump`),
  which transitively covers window operators, timekeepers and the shared
  in-memory SQL database;
* every input-port receiver: FIFO queues, or a window operator's group
  panes and counters plus whatever the receiver still owes a reader
  (produced windows, caller-drained expired events);
* the wave registry serial, the scheduler's ready queues + policy state,
  the fault supervisor (health records + dead letters), the statistics
  registry and the director's own counters;
* the module-global serial counters (event seq, window seq, ready-queue
  tie-break) that make replayed ordering decisions bit-identical.

All component dumps are plain observations of live containers; the single
:func:`pickle.dumps` call here materializes them synchronously, and the
pickle memo deduplicates rows shared between actors (e.g. the Linear Road
database).  :func:`restore_snapshot` applies the dumps *in place* on a
freshly rebuilt, attached and initialized engine, so shared references
(actors holding the same ``Database``) stay shared.

A structural fingerprint travels with every snapshot; restoring onto a
workflow with different actors, ports or scheduling policy raises
:class:`~repro.core.exceptions.CheckpointError` instead of silently
producing a diverged run.
"""

from __future__ import annotations

import gc
import itertools
import pickle
from typing import Any

from ..core import events as _events_mod
from ..core import windows as _windows_mod
from ..core.exceptions import CheckpointError
from ..stafilos import ready as _ready_mod
from .protocol import dump_component, restore_component

#: Snapshot layout version; bumped whenever the dict shape changes so a
#: stale payload fails loudly instead of restoring garbage.  Format 2
#: dropped the fields nothing restored from: the window operators'
#: ``last_seen`` stamps, the wave groups' ``open_order`` and the TM
#: receivers' ``staged`` buffer (see :func:`_upgrade_format_1`).
SNAPSHOT_FORMAT = 2

#: Optional director-owned components, captured when present.  The SCWF
#: director has the first four (plus ``overload`` when a QoS controller
#: is installed and ``frontier`` when progress tracking is enabled); the
#: live PNCWF director has only a supervisor.
_OPTIONAL_COMPONENTS = (
    "clock",
    "cost_model",
    "scheduler",
    "supervisor",
    "overload",
    "frontier",
)


def _read_count(counter: "itertools.count") -> int:
    """The next value an ``itertools.count`` would yield, non-destructively.

    ``next()`` would consume a serial and perturb the run; ``__reduce__``
    exposes the internal cursor without advancing it.
    """
    return counter.__reduce__()[1][0]


def structure_fingerprint(director: Any) -> dict[str, Any]:
    """A cheap structural identity for compatibility checking.

    Covers the workflow name, every actor with its input/output port
    names, and the scheduling policy — enough to catch the common
    restore-onto-the-wrong-build mistakes without hashing code objects.
    """
    workflow = director.workflow
    if workflow is None:
        raise CheckpointError("cannot fingerprint a detached director")
    actors = {
        name: {
            "type": type(actor).__name__,
            "inputs": sorted(actor.input_ports),
            "outputs": sorted(actor.output_ports),
        }
        for name, actor in sorted(workflow.actors.items())
    }
    scheduler = getattr(director, "scheduler", None)
    return {
        "workflow": workflow.name,
        "director": type(director).__name__,
        "actors": actors,
        "policy": getattr(scheduler, "policy_name", None),
    }


def _capture_receivers(workflow: Any) -> dict[str, dict[str, Any]]:
    """Per-actor, per-port receiver dumps (ports without receivers skip)."""
    dumps: dict[str, dict[str, Any]] = {}
    for name, actor in workflow.actors.items():
        ports: dict[str, Any] = {}
        for port_name, port in actor.input_ports.items():
            if port.receiver is not None:
                ports[port_name] = dump_component(
                    port.receiver, f"receiver {port.full_name}"
                )
        if ports:
            dumps[name] = ports
    return dumps


def _restore_receivers(
    workflow: Any, dumps: dict[str, dict[str, Any]]
) -> None:
    for name, ports in dumps.items():
        actor = workflow.actors.get(name)
        if actor is None:
            raise CheckpointError(
                f"snapshot references unknown actor {name!r}"
            )
        for port_name, state in ports.items():
            port = actor.input_ports.get(port_name)
            if port is None or port.receiver is None:
                raise CheckpointError(
                    f"snapshot references missing receiver "
                    f"{name}.{port_name}"
                )
            restore_component(
                port.receiver, state, f"receiver {port.full_name}"
            )


def capture_snapshot(director: Any) -> dict[str, Any]:
    """Collect every component dump into one plain snapshot dict.

    The director must be attached; capture is a pure observation — no
    counters are consumed, no RNG is drawn, no queue is mutated — so a
    run that checkpoints and a run that does not stay bit-identical.
    """
    workflow = director.workflow
    if workflow is None:
        raise CheckpointError("cannot snapshot a detached director")
    snapshot: dict[str, Any] = {
        "format": SNAPSHOT_FORMAT,
        "fingerprint": structure_fingerprint(director),
        "actors": {
            name: dump_component(actor, f"actor {name}")
            for name, actor in workflow.actors.items()
        },
        "receivers": _capture_receivers(workflow),
        "wave_generator": dump_component(
            workflow.wave_generator, "wave generator"
        ),
        "statistics": dump_component(director.statistics, "statistics"),
        "director": dump_component(director, "director"),
        "globals": {
            "event_seq": _read_count(_events_mod._EVENT_SEQ),
            "window_seq": _read_count(_windows_mod._WINDOW_SEQ),
            "ready_tiebreak": _read_count(_ready_mod._TIEBREAK),
        },
    }
    for attr in _OPTIONAL_COMPONENTS:
        component = getattr(director, attr, None)
        if component is not None:
            snapshot[attr] = dump_component(component, attr)
    return snapshot


def serialize_snapshot(snapshot: dict[str, Any]) -> bytes:
    """One synchronous ``pickle.dumps`` over the whole snapshot dict.

    Component dumps reference live containers; serializing them in a
    single call both freezes a consistent point-in-time image and lets
    the pickle memo share structures referenced from several actors.

    Garbage collection is suspended for the duration of the dump: the
    pickler allocates memo entries for every visited object, and cyclic
    GC passes triggered mid-dump rescan that growing memo repeatedly,
    adding ~20% to serialization time on windowed workloads.
    """
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 - surface any pickling failure
        raise CheckpointError(
            f"snapshot is not picklable: {type(exc).__name__}: {exc}"
        ) from exc
    finally:
        if gc_was_enabled:
            gc.enable()


def _upgrade_format_1(snapshot: dict[str, Any]) -> None:
    """Rewrite a format-1 snapshot to format 2, in place.

    Format 1 carried three write-only fields.  ``last_seen`` is
    dropped; a wave group's ``open_order`` was already dropped while
    unpickling (``_revive_wave_group``); ``staged`` held items between a
    test-only ``stage``/``get`` pair and is empty in every snapshot an
    engine wrote — a non-empty one would be work this engine has no
    place for, so it is refused rather than lost.
    """
    for actor, ports in snapshot.get("receivers", {}).items():
        for port, state in ports.items():
            if state.pop("staged", None):
                raise CheckpointError(
                    f"format-1 snapshot holds staged items on receiver "
                    f"{actor}.{port}; this engine stages on the firing "
                    "context and cannot resume them"
                )
            state.get("operator", {}).pop("last_seen", None)
    snapshot["format"] = SNAPSHOT_FORMAT


def deserialize_snapshot(payload: bytes) -> dict[str, Any]:
    """Unpickle a payload, upgrading format 1, and validate the version."""
    try:
        snapshot = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - corrupt payloads vary widely
        raise CheckpointError(
            f"snapshot payload is corrupt: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(snapshot, dict) or "format" not in snapshot:
        raise CheckpointError("snapshot payload has no format marker")
    if snapshot["format"] == 1:
        _upgrade_format_1(snapshot)
    if snapshot["format"] != SNAPSHOT_FORMAT:
        raise CheckpointError(
            f"snapshot format {snapshot['format']!r} is not supported "
            f"(expected {SNAPSHOT_FORMAT})"
        )
    return snapshot


def restore_snapshot(director: Any, snapshot: dict[str, Any]) -> None:
    """Apply *snapshot* in place onto a rebuilt, initialized engine.

    The director must already be attached to a structurally identical
    workflow and have run ``initialize_all()`` — restore overwrites the
    fresh initial state with the checkpointed one.  Application order is
    receivers before the scheduler (scheduler ready queues hold their
    own staged items independently) and globals last, but every step is
    an in-place overwrite so the order is not semantically load-bearing.
    """
    workflow = director.workflow
    if workflow is None:
        raise CheckpointError("cannot restore onto a detached director")
    expected = structure_fingerprint(director)
    recorded = snapshot.get("fingerprint")
    if recorded != expected:
        raise CheckpointError(
            "snapshot structure does not match the rebuilt engine; "
            "rebuild the workflow with the original builder and "
            "configuration before restoring"
        )
    for name, state in snapshot["actors"].items():
        actor = workflow.actors.get(name)
        if actor is None:
            raise CheckpointError(
                f"snapshot references unknown actor {name!r}"
            )
        restore_component(actor, state, f"actor {name}")
    _restore_receivers(workflow, snapshot["receivers"])
    restore_component(
        workflow.wave_generator, snapshot["wave_generator"], "wave generator"
    )
    restore_component(director.statistics, snapshot["statistics"], "statistics")
    for attr in _OPTIONAL_COMPONENTS:
        component = getattr(director, attr, None)
        if attr in snapshot:
            if component is None:
                raise CheckpointError(
                    f"snapshot has {attr!r} state but the rebuilt "
                    "director has no such component"
                )
            restore_component(component, snapshot[attr], attr)
    restore_component(director, snapshot["director"], "director")
    counters = snapshot["globals"]
    _events_mod._EVENT_SEQ = itertools.count(int(counters["event_seq"]))
    _windows_mod._WINDOW_SEQ = itertools.count(int(counters["window_seq"]))
    _ready_mod._TIEBREAK = itertools.count(int(counters["ready_tiebreak"]))

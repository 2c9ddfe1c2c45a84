"""The ``Checkpointable`` protocol — the contract every engine component
implements to participate in wave-aligned snapshots: two methods,
``state_dump()`` and ``state_restore(state)``, found by duck typing.

A checkpoint of a continuous workflow cannot be a naive ``pickle`` of the
engine: directors, workflows, ports and receivers are laced with lambdas
(window ``group_by`` functions, :class:`~repro.core.actors.FunctionActor`
bodies) and threading primitives, none of
which serialize.  Instead the engine splits *structure* from *data*:

* **Structure** — the workflow graph, actor functions, window specs,
  scheduler policy — is rebuilt from the original builder (the same code
  + seed that built the crashed run).
* **Data** — queue contents, window operator group states, source
  cursors, RNG states, statistics, wave counters — is captured by each
  component's ``state_dump()`` and re-applied **in place** on the
  freshly rebuilt component by ``state_restore(state)``.

``state_dump`` must be a *pure observation*: it may copy containers and
read RNG state via ``getstate()``, but must never consume counters, draw
RNG numbers, or trim rate windows — a run that checkpoints must stay
bit-identical to one that does not.  ``state_restore`` applies a dump to
a component already *structurally* rebuilt (same workflow builder, same
specs) and must be idempotent: applying the same dump twice leaves the
component in the same state.

The dump value itself must be picklable with the standard library
``pickle`` and must never contain live engine objects (actors, ports,
receivers, directors, workflows) — reference them by *name* instead, so
a dump taken in one process restores cleanly into a rebuilt engine in
another process.
"""

from __future__ import annotations

from typing import Any


def dump_component(obj: Any, label: str | None = None) -> Any:
    """Dump *obj* via the protocol, raising a clear error when unsupported.

    Small convenience used by the snapshot orchestrator so error messages
    name the offending component (*label*, falling back to the type name)
    instead of failing deep inside pickle.
    """
    from ..core.exceptions import CheckpointError

    dump = getattr(obj, "state_dump", None)
    if dump is None:
        raise CheckpointError(
            f"{label or type(obj).__name__} does not implement the "
            "Checkpointable protocol (no state_dump)"
        )
    return dump()


def restore_component(obj: Any, state: Any, label: str | None = None) -> None:
    """Restore *obj* from *state* via the protocol, with a clear error."""
    from ..core.exceptions import CheckpointError

    restore = getattr(obj, "state_restore", None)
    if restore is None:
        raise CheckpointError(
            f"{label or type(obj).__name__} does not implement the "
            "Checkpointable protocol (no state_restore)"
        )
    restore(state)

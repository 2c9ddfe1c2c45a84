"""Dead-letter replay: second chances for captured poison items.

A :class:`~repro.resilience.deadletter.DeadLetterQueue` exists so failed
items are *parked*, not lost — and parking is only useful if the items
can eventually be re-run, e.g. after a buggy actor is fixed and the run
is resumed from a checkpoint.  :func:`replay_dead_letters` drains the
supervisor's queue and re-admits every letter that names an input port
as the ready item it was — a window stays the window its actor was
staged with, not a new arrival for the port's window operator — closing
any quarantine circuit first so the replayed item actually executes.
Source-side letters (``port is None`` — the item never made it past a
failing source pump) cannot be re-admitted and are returned to the
queue untouched.
"""

from __future__ import annotations

from typing import Any, Optional


def replay_dead_letters(director: Any, now_us: Optional[int] = None) -> int:
    """Re-enqueue every replayable dead letter; returns the replay count.

    Letters are drained oldest-first and re-admitted in that order, so a
    replayed stream preserves its original relative ordering.  A
    director with a ready-item intake (``schedule_ready``) takes each
    item there, where a frontier tracker counts it like any admitted
    item; any other director takes it through boundary injection.
    Letters whose actor no longer exists or that have no target port go
    straight back into the dead-letter queue (still inspectable, never
    dropped).
    """
    supervisor = director.supervisor
    workflow = director.workflow
    if workflow is None:
        return 0
    now = now_us if now_us is not None else director.current_time()
    schedule_ready = getattr(director, "schedule_ready", None)
    replayed = 0
    for letter in supervisor.dead_letters.drain():
        actor = workflow.actors.get(letter.actor)
        if actor is None or letter.port is None:
            supervisor.dead_letters.append(letter)
            continue
        # Close the circuit so the replayed item is allowed to execute.
        supervisor.reset(letter.actor)
        if schedule_ready is None:
            director.inject(actor, letter.port, letter.item, now)
        else:
            schedule_ready(actor, letter.port, letter.item)
        replayed += 1
    return replayed

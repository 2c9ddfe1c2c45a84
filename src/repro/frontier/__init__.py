"""repro.frontier — timestamp-frontier progress tracking.

Wave completion in the seed engine rests on the marked last-event of a
(sub-)wave arriving *in order* and on engine-time window-formation
timeouts — both break down for out-of-order sources and for sharded
runs where engine time is placement-dependent.  This subsystem reframes
progress as a *monotone frontier* over wave/timestamp tokens, following
the timestamp-token formulation of Lattuada & McSherry (see PAPERS.md):

* :class:`FrontierTracker` counts outstanding tokens per root wave-tag
  (incremented when an event enters flight, decremented when it is
  consumed, absorbed into window state, dead-lettered or dropped), so
  the frontier advances exactly when a wave's derivation tree drains —
  no reliance on mark order.
* The event-time bound ("no event with timestamp < ``up_to_us`` is
  still coming") is a value the engine holds, never an item in the
  stream: a source's own bound is ``SourceActor.progress_watermark``,
  and the director applies it with ``close_on_frontier``.
* :class:`LatenessPolicy` decides what happens to events arriving
  behind an already-applied frontier: drop them, side-output them to
  the expired route, or admit them within an allowed-lateness grace.

The tracker is ``Checkpointable`` (it round-trips through
``repro.checkpoint`` as the director's ``frontier`` component) and
observable (``frontier.advance`` / ``event.late`` trace events,
``frontier_*`` engine counters).
"""

from .lateness import LatenessPolicy
from .tracker import FrontierTracker

__all__ = [
    "FrontierTracker",
    "LatenessPolicy",
]

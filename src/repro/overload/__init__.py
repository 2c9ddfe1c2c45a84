"""Elastic overload control: admission, backpressure and adaptive shedding.

This package is the engine's answer to sustained overload (paper §4.3's
load-shedding discussion, ROADMAP open item 3).  The public surface is
small and composable:

* :class:`QoSPolicy` — one declarative config object subsuming every
  overload knob (the shedding bounds, admission rates, backpressure
  watermarks and the latency SLO target);
* :class:`OverloadController` — the closed feedback loop that enforces a
  policy at the scheduler's shedding hook points, deterministically in
  engine time;
* :class:`BacklogShedder` — the drop mechanism;
* :class:`TokenBucket` — engine-time token buckets for per-source
  admission.

Typical use::

    from repro import QoSPolicy

    policy = QoSPolicy(latency_slo_s=5.0, max_ready_backlog=20_000)
    director.apply_qos(policy)
"""

from .bucket import TokenBucket
from .controller import OverloadController
from .qos import SHED_STRATEGIES, QoSPolicy
from .shedding import BacklogShedder

__all__ = [
    "BacklogShedder",
    "OverloadController",
    "QoSPolicy",
    "SHED_STRATEGIES",
    "TokenBucket",
]

"""The engine's time unit: integral microseconds.

Every timestamp, deadline and cost in the engine is an ``int`` count of
microseconds; :data:`US_PER_S` converts workload descriptions given in
seconds.  The paper's timekeepers — monotone stamping of external
events — are :meth:`repro.core.actors.SourceActor.feed`'s strict-order
check.
"""

US_PER_S = 1_000_000

"""Fault tolerance: retries, quarantine, and dead-letter queues.

A continuous workflow never finishes, so a single poison event must not
take the engine down.  This example feeds a parser actor a stream that
contains malformed records and runs it under a ``FaultPolicy``:

* transient failures are retried with exponential backoff charged in
  *engine* time (the run stays deterministic under the virtual clock);
* items that still fail after the retries are captured in a bounded
  dead-letter queue together with their port, attempt count and error;
* the per-actor error budget (a circuit breaker) quarantines an actor
  that fails too many times in a row instead of burning cycles on it.

Run:  python examples/fault_tolerance.py
"""

from repro import (
    CostModel,
    FaultPolicy,
    MapActor,
    RRScheduler,
    SCWFDirector,
    SimulationRuntime,
    SinkActor,
    SourceActor,
    VirtualClock,
    Workflow,
)


def build_feed():
    """(arrival_us, raw_record) pairs with two malformed entries."""
    records = []
    for i in range(10):
        raw = f"car={i};speed={50 + i}"
        if i in (3, 7):  # corrupted on the wire
            raw = f"car={i};speed=???"
        records.append((i * 100_000, raw))
    return records


def parse(raw: str) -> dict:
    fields = dict(part.split("=", 1) for part in raw.split(";"))
    return {"car": int(fields["car"]), "speed": int(fields["speed"])}


def main() -> None:
    workflow = Workflow("toll-feed")
    feed = SourceActor("feed", arrivals=build_feed())
    feed.add_output("out")
    parser = MapActor("parse", parse)
    sink = SinkActor("tolls")
    workflow.add_all([feed, parser, sink])
    workflow.connect(feed, parser)
    workflow.connect(parser, sink)

    # Two retries with backoff, then dead-letter; quarantine an actor
    # after 10 consecutive exhausted failures.
    policy = FaultPolicy.resilient(max_retries=2, error_budget=10)

    clock = VirtualClock()
    director = SCWFDirector(
        RRScheduler(slice_us=10_000), clock, CostModel(),
        error_policy=policy,
    )
    director.attach(workflow)
    SimulationRuntime(director, clock).run(until_s=5.0, drain=True)

    print(f"parsed records : {len(sink.values)}")
    print(f"dead letters   : {len(director.dead_letters)}")
    for letter in director.dead_letters:
        print(
            f"  {letter.actor}.{letter.port}: after {letter.attempts} "
            f"attempts -> {letter.error_type}: {letter.error_message}"
        )
    print(f"error summary  : {director.supervisor.error_summary()}")

    # The malformed records landed in the DLQ; everything else parsed.
    assert len(sink.values) == 8, sink.values
    assert len(director.dead_letters) == 2
    assert all(letter.attempts == 3 for letter in director.dead_letters)
    # Retries and dead letters are also visible as statistics counters.
    snapshot = director.statistics.snapshot()
    assert snapshot["parse"]["retries"] == 4
    assert snapshot["parse"]["dead_letters"] == 2


if __name__ == "__main__":
    main()

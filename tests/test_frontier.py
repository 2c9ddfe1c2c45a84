"""Timestamp-frontier progress tracking (``repro.frontier``).

Covers the acceptance criteria of the subsystem:

* unit behaviour of the :class:`FrontierTracker` (token accounting,
  frontier queries, checkpoint round-trip) and the
  :class:`LatenessPolicy`;
* :class:`~repro.core.receivers.WindowedReceiver` closing panes on an
  applied watermark and handling late events behind it;
* ``SourceActor.feed`` rejecting non-monotone batches in strict mode
  and re-sorting them in out-of-order mode (regression);
* the headline oracle property: a frontier-closing run over an
  out-of-order seeded Linear Road trace produces the **same canonical
  sink reports** as the in-order run of the same seed;
* a frontier-enabled run killed mid-stream and resumed from disk is
  bit-identical to the uninterrupted run;
* sharded frontier closure: with ``frontier="close"`` the merged
  sink traces and frontier log are identical across worker counts —
  without relying on the stripped window-timeout fallback.
"""

from dataclasses import replace

import pytest

from repro.checkpoint import DirectoryCheckpointStore
from repro.core.actors import SourceActor
from repro.core.events import CWEvent
from repro.core.exceptions import ActorError, SimulationError
from repro.core.receivers import WindowedReceiver
from repro.core.waves import WaveTag
from repro.core.windows import WindowSpec
from repro.frontier import FrontierTracker, LatenessPolicy
from repro.harness.cli import build_parser
from repro.harness.configs import ExperimentConfig, SchedulerSpec
from repro.harness.experiment import (
    _execute_seed,
    checkpoint_meta,
    config_from_meta,
    resume_run,
    run_once,
)
from repro.linearroad.generator import US_PER_S, WorkloadConfig
from repro.observability import RecordingTracer, use_tracer
from repro.shard import run_sharded
from repro.shard.routing import canonical_run_traces


def _event(serial: int, ts: int) -> CWEvent:
    return CWEvent(f"v{serial}", ts, WaveTag.root(serial))


# ---------------------------------------------------------------------------
# FrontierTracker units
# ---------------------------------------------------------------------------
class TestFrontierTracker:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            FrontierTracker(mode="closeish")

    def test_empty_tracker_has_no_frontier(self):
        tracker = FrontierTracker()
        assert tracker.frontier_ts() is None
        assert tracker.outstanding_tokens() == 0
        assert tracker.lag_us(1_000_000) == 0

    def test_frontier_is_oldest_outstanding_root(self):
        tracker = FrontierTracker()
        e1, e2, e3 = _event(1, 100), _event(2, 200), _event(3, 300)
        for event in (e2, e1, e3):  # observation order is irrelevant
            tracker.observe(event)
        assert tracker.frontier_ts() == 100
        tracker.retire(e1.wave)
        assert tracker.frontier_ts() == 200
        tracker.retire(e3.wave)  # out-of-order completion
        assert tracker.frontier_ts() == 200
        tracker.retire(e2.wave)
        assert tracker.frontier_ts() is None
        assert tracker.max_admitted_us == 300

    def test_one_root_holds_many_tokens(self):
        tracker = FrontierTracker()
        root = WaveTag.root(5)
        event = CWEvent("x", 50, root)
        tracker.observe(event)
        tracker.observe(CWEvent("y", 60, root.child(1)))
        assert tracker.outstanding_tokens() == 2
        tracker.retire(root.child(1))  # derived token, same root
        assert tracker.frontier_ts() == 50
        tracker.retire(root)
        assert tracker.frontier_ts() is None

    def test_retire_of_unknown_root_is_noop(self):
        tracker = FrontierTracker()
        tracker.retire(WaveTag.root(99))
        assert tracker.outstanding_tokens() == 0

    def test_window_token_adopts_newest_member_root(self):
        tracker = FrontierTracker()

        class _Delivered:
            events = [_event(1, 100), _event(4, 400), _event(2, 200)]

        tracker.observe_item(_Delivered())
        assert tracker.frontier_ts() == 400  # max(events) is root 4
        tracker.retire_item(_Delivered())
        assert tracker.frontier_ts() is None

    def test_lag_and_applied_are_monotone(self):
        tracker = FrontierTracker()
        tracker.observe(_event(1, 100))
        assert tracker.lag_us(150) == 50
        assert tracker.lag_us(50) == 0
        tracker.note_applied(500)
        tracker.note_applied(400)  # regressions are ignored
        assert tracker.applied_us == 500

    def test_frontier_advance_is_traced(self):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            tracker = FrontierTracker()
            tracker.observe(_event(1, 100))
            tracker.retire(WaveTag.root(1))
        assert "frontier.advance" in [r.name for r in tracer.records()]

    def test_counters_publish(self):
        counters = {}
        tracker = FrontierTracker()
        tracker.bind_counters(counters)
        tracker.observe(_event(1, 100))
        tracker.note_late()
        tracker.publish(300)
        assert counters["frontier_outstanding"] == 1.0
        assert counters["frontier_lag_us"] == 200.0
        assert counters["late_events"] == 1.0

    def test_checkpoint_round_trip(self):
        tracker = FrontierTracker(mode="close")
        for event in (_event(2, 200), _event(1, 100), _event(3, 300)):
            tracker.observe(event)
        tracker.retire(WaveTag.root(1))
        tracker.note_applied(150)
        tracker.note_late()

        restored = FrontierTracker(mode="close")
        restored.state_restore(tracker.state_dump())
        assert restored.frontier_ts() == tracker.frontier_ts() == 200
        assert restored.outstanding_tokens() == 2
        assert restored.applied_us == 150
        assert restored.max_admitted_us == 300
        assert restored.frontier_advances == 1
        assert restored.late_events == 1
        # The rebuilt heap keeps advancing correctly.
        restored.retire(WaveTag.root(2))
        assert restored.frontier_ts() == 300


# ---------------------------------------------------------------------------
# LatenessPolicy
# ---------------------------------------------------------------------------
class TestLatenessPolicy:
    def test_parse_round_trips(self):
        for spec in ("drop", "expired", "grace:0", "grace:500"):
            assert LatenessPolicy.parse(spec).spec() == spec
        assert LatenessPolicy.parse("grace") == LatenessPolicy("grace", 0)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            LatenessPolicy.parse("keep")
        with pytest.raises(ValueError):
            LatenessPolicy("grace", -1)
        with pytest.raises(ValueError):
            LatenessPolicy("drop", 500)  # lateness needs the grace action

    def test_dispositions(self):
        drop = LatenessPolicy("drop")
        assert drop.disposition(100, applied_us=-1) == "ontime"
        assert drop.disposition(100, applied_us=100) == "ontime"
        assert drop.disposition(99, applied_us=100) == "drop"
        expired = LatenessPolicy("expired")
        assert expired.disposition(99, applied_us=100) == "expired"
        grace = LatenessPolicy("grace", allowed_lateness_us=10)
        assert grace.disposition(95, applied_us=100) == "ontime"
        assert grace.disposition(89, applied_us=100) == "drop"


# ---------------------------------------------------------------------------
# WindowedReceiver: watermarks and late events
# ---------------------------------------------------------------------------
def _timed_receiver() -> WindowedReceiver:
    return WindowedReceiver(WindowSpec.time(size_us=100))


class TestReceiverFrontier:
    def test_watermark_closes_complete_panes(self):
        receiver = _timed_receiver()
        receiver.put(_event(1, 10))
        receiver.put(_event(2, 60))
        assert not receiver.has_token()  # pane [10, 110) still open
        assert receiver.close_on_frontier(110) == 1
        assert receiver.has_token()
        window = receiver.get()
        assert [e.timestamp for e in window.events] == [10, 60]

    def test_late_event_dropped_behind_applied_frontier(self):
        receiver = _timed_receiver()
        receiver.lateness = LatenessPolicy("drop")
        receiver.put(_event(1, 10))
        receiver.close_on_frontier(110)
        receiver.put(_event(2, 50))  # behind the applied bound
        assert receiver.pending_events() == 0

    def test_late_event_admitted_without_policy(self):
        receiver = _timed_receiver()
        receiver.put(_event(1, 10))
        receiver.close_on_frontier(110)
        receiver.put(_event(2, 50))  # stale pane reopens
        assert receiver.pending_events() == 1

    def test_grace_admits_within_allowed_lateness(self):
        receiver = _timed_receiver()
        receiver.lateness = LatenessPolicy("grace", allowed_lateness_us=70)
        receiver.put(_event(1, 10))
        receiver.close_on_frontier(110)
        receiver.put(_event(2, 50))  # 60us late, inside the grace
        assert receiver.pending_events() == 1

    def test_late_drop_is_traced(self):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            receiver = _timed_receiver()
            receiver.lateness = LatenessPolicy("drop")
            receiver.put(_event(1, 10))
            receiver.close_on_frontier(110)
            receiver.put(_event(2, 50))
        assert "event.late" in [r.name for r in tracer.records()]

    def test_frontier_key_absent_from_untouched_dumps(self):
        # Frontier-less runs keep byte-identical snapshots to the seed.
        receiver = _timed_receiver()
        receiver.put(_event(1, 10))
        assert "frontier_us" not in receiver.state_dump()
        receiver.close_on_frontier(110)
        state = receiver.state_dump()
        assert state["frontier_us"] == 110
        restored = _timed_receiver()
        restored.state_restore(state)
        assert restored._frontier_us == 110


# ---------------------------------------------------------------------------
# SourceActor.feed: non-monotone batches (regression)
# ---------------------------------------------------------------------------
class TestSourceFeedMonotonicity:
    def test_strict_source_rejects_earlier_arrivals(self):
        source = SourceActor("src", [(10, "a"), (20, "b")])
        with pytest.raises(ActorError, match="out_of_order"):
            source.feed([(5, "x")])
        # The schedule is untouched by the rejected batch.
        assert source.peek_arrival() == (10, "a")

    def test_strict_source_accepts_appends(self):
        source = SourceActor("src", [(10, "a")])
        source.feed([(20, "b"), (30, "c")])
        assert source.peek_arrival() == (10, "a")

    def test_out_of_order_source_resorts_undelivered_tail(self):
        source = SourceActor(
            "src",
            [(10, "a"), (20, "b"), (30, "c")],
            out_of_order=True,
            disorder_us=25,
        )
        assert source.skip_current() == (10, "a")  # delivered prefix
        source.feed([(15, "x")])
        # The fed arrival sorts into the undelivered tail; the prefix
        # behind the cursor is never touched.
        assert source.skip_current() == (15, "x")
        assert source.skip_current() == (20, "b")
        assert source.skip_current() == (30, "c")
        assert source.exhausted()


# ---------------------------------------------------------------------------
# Config validation + CLI surface
# ---------------------------------------------------------------------------
def _lr_config(**overrides) -> ExperimentConfig:
    workload = WorkloadConfig(duration_s=60, peak_rate=40, seed=1)
    config = ExperimentConfig(
        scheduler=SchedulerSpec("RR", quantum_us=40_000),
        workload=workload,
        seeds=(1,),
    )
    return replace(config, **overrides)


def _disordered(config: ExperimentConfig, disorder_s: float):
    return replace(
        config, workload=replace(config.workload, disorder_s=disorder_s)
    )


class TestConfigValidation:
    def test_disorder_requires_frontier(self):
        config = _disordered(_lr_config(), 3.0)
        with pytest.raises(SimulationError, match="frontier"):
            run_once(config, 1)

    def test_lateness_requires_closing_frontier(self):
        config = _lr_config(frontier="track", lateness="drop")
        with pytest.raises(SimulationError, match="close"):
            run_once(config, 1)

    def test_cli_flags_parse_and_round_trip(self):
        parser = build_parser()
        args = parser.parse_args(
            ["--out-of-order", "--watermark-disorder", "3",
             "--lateness", "grace:500", "run", "rr"]
        )
        assert args.out_of_order == "close"  # bare flag defaults to close
        assert args.watermark_disorder == 3.0
        assert args.lateness == "grace:500"
        args = parser.parse_args(["--out-of-order", "track", "run", "rr"])
        assert args.out_of_order == "track"
        with pytest.raises(SystemExit):
            parser.parse_args(["--out-of-order", "sometimes", "run", "rr"])

    def test_frontier_survives_checkpoint_meta(self):
        config = _disordered(
            _lr_config(frontier="close", lateness="drop"), 3.0
        )
        rebuilt, seed = config_from_meta(checkpoint_meta(config, 7))
        assert seed == 7
        assert rebuilt.frontier == "close"
        assert rebuilt.lateness == "drop"
        assert rebuilt.workload.disorder_s == 3.0
        # Manifests written before frontiers default to untracked.
        legacy = checkpoint_meta(_lr_config(), 7)
        legacy.pop("frontier")
        legacy.pop("lateness")
        rebuilt, _ = config_from_meta(legacy)
        assert rebuilt.frontier is None and rebuilt.lateness is None


# ---------------------------------------------------------------------------
# The oracle property: out-of-order + frontier == in-order sink reports
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def inorder_oracle():
    """Canonical sink traces of the in-order frontier-closing run."""
    _, _, system = _execute_seed(_lr_config(frontier="close"), 1, drain=True)
    return canonical_run_traces(system)


class TestOutOfOrderOracle:
    def test_frontier_run_matches_inorder_oracle(self, inorder_oracle):
        config = _disordered(_lr_config(frontier="close"), 3.0)
        _, _, system = _execute_seed(config, 1, drain=True)
        traces = canonical_run_traces(system)
        assert len(traces["toll"]) > 200  # a real workload, not a no-op
        assert traces["toll"] == inorder_oracle["toll"]
        assert traces["accident"] == inorder_oracle["accident"]

    def test_heavier_disorder_still_matches(self, inorder_oracle):
        config = _disordered(_lr_config(frontier="close"), 5.0)
        _, _, system = _execute_seed(config, 1, drain=True)
        traces = canonical_run_traces(system)
        assert traces["toll"] == inorder_oracle["toll"]
        assert traces["accident"] == inorder_oracle["accident"]

    def test_a_disordered_source_waits_instead_of_spinning(self, monkeypatch):
        """A source whose reorder buffer holds only unripe events is not
        runnable: it is pumped once to deposit a delivery and once to
        release a ripe timestamp, never in between (the engine idles to
        the release time instead of charging empty pumps)."""
        tally = {"pumps": 0, "released": 0}
        stock = SourceActor.pump

        def counting(source, ctx):
            emitted = stock(source, ctx)
            tally["pumps"] += 1
            tally["released"] += emitted
            return emitted

        monkeypatch.setattr(SourceActor, "pump", counting)
        config = replace(
            _lr_config(frontier="track", scheduler=SchedulerSpec("FIFO")),
            workload=WorkloadConfig(
                duration_s=30, peak_rate=40, seed=1, l_rating=4.0,
                disorder_s=3.0,
            ),
        )
        _execute_seed(config, 1)
        assert tally["released"] > 1000
        assert tally["pumps"] <= 2 * tally["released"]

    def test_track_mode_observes_without_closing(self):
        config = _disordered(_lr_config(frontier="track"), 3.0)
        result, director, _ = _execute_seed(config, 1, drain=True)
        counters = director.statistics.engine_counters
        assert counters["frontier_advances"] > 0
        assert result.tolls > 0


# ---------------------------------------------------------------------------
# Checkpoint / resume of a frontier-enabled run
# ---------------------------------------------------------------------------
class _CrashAfter(DirectoryCheckpointStore):
    """Directory store that kills the run right after its Nth snapshot."""

    def __init__(self, directory, crash_after: int, retain: int = 3):
        super().__init__(directory, retain=retain)
        self.crash_after = crash_after
        self.saves = 0

    def save(self, manifest, payload):
        super().save(manifest, payload)
        self.saves += 1
        if self.saves >= self.crash_after:
            raise KeyboardInterrupt("simulated crash")


class TestFrontierCrashResume:
    def test_killed_frontier_run_resumes_bit_identical(self, tmp_path):
        base = _disordered(_lr_config(frontier="close"), 3.0)
        reference = run_once(base, 1)
        config = replace(
            base, checkpoint_dir=str(tmp_path), checkpoint_every_s=10.0
        )
        store = _CrashAfter(tmp_path, crash_after=3)
        with pytest.raises(KeyboardInterrupt):
            _execute_seed(config, 1, store=store)
        assert store.manifests(), "crash must leave snapshots behind"

        resumed, director, _, manifest = resume_run(str(tmp_path))
        assert manifest.checkpoint_id == 3
        assert director.frontier is not None  # tracker round-tripped
        assert resumed.series.times_s == reference.series.times_s
        assert resumed.series.responses_s == reference.series.responses_s
        assert resumed.tolls == reference.tolls
        assert resumed.alerts == reference.alerts
        assert resumed.internal_firings == reference.internal_firings


# ---------------------------------------------------------------------------
# Sharded frontier closure (coordinator-merged minimum)
# ---------------------------------------------------------------------------
def _shard_config(**overrides) -> ExperimentConfig:
    workload = WorkloadConfig(
        duration_s=60, peak_rate=40, seed=1, l_rating=4.0, disorder_s=3.0
    )
    config = ExperimentConfig(
        scheduler=SchedulerSpec("RR", quantum_us=40_000),
        workload=workload,
        seeds=(1,),
        frontier="close",
    )
    return replace(config, **overrides)


@pytest.fixture(scope="module")
def frontier_single_shard():
    return run_sharded(_shard_config(), seed=1, shards=1, shard_key="xway")


class TestShardedFrontier:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_merged_traces_identical_across_worker_counts(
        self, frontier_single_shard, shards
    ):
        result = run_sharded(
            _shard_config(), seed=1, shards=shards, shard_key="xway"
        )
        assert result.tolls > 0
        assert result.toll_trace == frontier_single_shard.toll_trace
        assert (
            result.accident_trace == frontier_single_shard.accident_trace
        )
        assert result.frontier_log == frontier_single_shard.frontier_log

    def test_frontier_log_is_monotone_and_populated(
        self, frontier_single_shard
    ):
        log = frontier_single_shard.frontier_log
        assert log, "frontier-closing shards must report merged bounds"
        bounds = [bound for _, bound in log]
        assert bounds == sorted(bounds)
        horizon_us = 60 * US_PER_S
        assert all(bound <= horizon_us for bound in bounds)

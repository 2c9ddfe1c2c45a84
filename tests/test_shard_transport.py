"""The pipelined shard data plane (``repro.shard.codec`` + coordinator).

Covers the transport end to end: codec round-trips (Linear Road
chunks, mixed and exotic payloads, a Hypothesis property over arbitrary
payloads) and its fail-closed decoding (every prefix, every flipped
byte), credit-based pipelining (lockstep-vs-pipelined merged-trace
equality at several in-flight depths, frontier-close clamping, mid-run
migration under a deep window), dead-worker error surfacing in
``ShardCoordinator._recv``, transport telemetry (trace events, engine
counters, Prometheus export), the CLI summary line, and manifests
written while the plane still had knobs.
"""

import gc
import os
import pickle
import re
import signal
import time
from dataclasses import astuple, dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.actors import SinkActor, SourceActor
from repro.core.events import CWEvent
from repro.core.exceptions import ActorError, SimulationError
from repro.core.tokens import Token
from repro.core.waves import WaveTag
from repro.core.windows import Window
from repro.harness.cli import main
from repro.harness.configs import ExperimentConfig, SchedulerSpec
from repro.harness.experiment import checkpoint_meta, config_from_meta
from repro.linearroad.generator import (
    LinearRoadWorkload,
    US_PER_S,
    WorkloadConfig,
)
from repro.linearroad.types import (
    Accident,
    AccidentAlert,
    PositionReport,
    SegmentCrossing,
    SegmentStat,
    StoppedCar,
    TollNotification,
)
from repro.linearroad.workflow import shard_key_fn
from repro.observability import export_prometheus, RecordingTracer, use_tracer
from repro.shard import (
    canonical_trace,
    decode_chunk,
    encode_chunk,
    partition_arrivals,
    run_sharded,
    run_single_canonical,
    ShardCoordinator,
    ShardMigration,
    ShardPlan,
)
from repro.shard import coordinator as coordinator_module
from repro.shard.routing import _canonical_payload
from repro.shard.worker import build_shard_engine
from tests.retained_bytes import retained_bytes


def small_config(**overrides) -> ExperimentConfig:
    """A fast 4-expressway workload that stays un-backlogged."""
    workload = WorkloadConfig(
        duration_s=60, peak_rate=80, seed=1, l_rating=4.0
    )
    return ExperimentConfig(
        scheduler=SchedulerSpec(kind="FIFO"),
        workload=workload,
        seeds=(1,),
        **overrides,
    )


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return small_config()


@pytest.fixture(scope="module")
def single(config):
    """Canonical traces of the single-process oracle run."""
    return run_single_canonical(config, seed=1)


def lr_chunk(config, count=400):
    """A realistic per-worker chunk: LR report slices keyed by xway."""
    workload = LinearRoadWorkload(replace(config.workload, seed=1))
    slices = partition_arrivals(workload.arrivals(), shard_key_fn("xway"))
    return {group: items[:count] for group, items in slices.items()}


# ---------------------------------------------------------------------------
# Codec round-trips
# ---------------------------------------------------------------------------
class _BlobValue:
    """A payload that pickles its bytes as a protocol-5 ``PickleBuffer``."""

    def __init__(self, data):
        self.data = bytes(data)

    def __reduce_ex__(self, protocol):
        if protocol >= 5:
            return (_BlobValue, (pickle.PickleBuffer(self.data),))
        return (_BlobValue, (self.data,))

    def __eq__(self, other):
        return isinstance(other, _BlobValue) and self.data == other.data

    def __repr__(self):
        return f"_BlobValue({len(self.data)}B)"


#: What the SC1 columnar codec this format replaced framed a 4 x 400-row
#: ``lr_chunk`` in: the wire never gets fatter than that.
SC1_LR_CHUNK_BYTES = 70_464


def assert_roundtrips(payload):
    """Decoding an encoded *payload* gives it back, ``repr`` included."""
    decoded = decode_chunk(encode_chunk(payload))
    assert decoded == payload
    # repr-exactness, group by group: the deterministic merge key is
    # ``(ts, repr(payload))``, so value-equality is not enough.
    for group, rows in payload.items():
        assert list(map(repr, decoded[group])) == list(map(repr, rows))


_REPORT = PositionReport(3, 7, 55.5, 0, 1, 0, 4, 21_500)

#: Payloads outside the Linear Road report stream's shape.
ROUNDTRIP_INPUTS = {
    "mixed": {
        0: [(1, _REPORT), (2, _REPORT)],
        1: [(3, "late"), (4, None)],
    },
    "int64-overflow": {0: [(2 ** 70, _REPORT)]},
    "wide-field": {
        0: [(5, PositionReport(
            time=2 ** 40, car_id=1, speed=1.0, xway=0, lane=0,
            direction=0, segment=0, position=0,
        ))],
    },
    "out-of-band-buffer": {"blob": [(1, _BlobValue(b"\xab" * 4096))]},
}


class TestCodec:
    def test_roundtrips_lr_chunk(self, config):
        assert_roundtrips(lr_chunk(config))

    def test_lr_chunk_is_no_larger_than_sc1(self, config):
        chunk = lr_chunk(config)
        assert [len(rows) for rows in chunk.values()] == [400] * 4
        assert len(encode_chunk(chunk)) <= SC1_LR_CHUNK_BYTES

    def test_decoded_reports_are_no_larger_than_constructed(self):
        rows = [
            (index, PositionReport(index // 100, index, 50.0 + index % 7,
                                   0, 1, 0, index % 100, 5280 * index))
            for index in range(10_000)
        ]
        blob = encode_chunk({0: rows})
        decode_chunk(blob)  # warm every code path

        def decoded():
            return decode_chunk(blob)[0]

        def constructed():
            # The same rows and field values, each report rebuilt by the
            # dataclass constructor.
            rebuilt = decoded()
            rebuilt[:] = [
                (ts, PositionReport(*astuple(report)))
                for ts, report in rebuilt
            ]
            return rebuilt

        # A dict per report would add ~180 B each; 8 B a report absorbs
        # what other threads of the test process allocate meanwhile.
        assert retained_bytes(decoded) <= (
            retained_bytes(constructed) + 8 * len(rows)
        )

    def test_empty_payloads(self):
        assert_roundtrips({})
        assert_roundtrips({0: []})

    def test_disorder_triples_roundtrip(self, config):
        rows = lr_chunk(config, count=20)[0]
        assert_roundtrips({2: [(ts + 5, value, ts) for ts, value in rows]})

    @pytest.mark.parametrize("name", sorted(ROUNDTRIP_INPUTS))
    def test_payload_roundtrips(self, name):
        assert_roundtrips(ROUNDTRIP_INPUTS[name])

    def test_rejects_unknown_codec_and_garbage(self):
        # ``encode_chunk({})`` under the SC1 columnar codec this format
        # replaced: its magic reads as a body length far past the end.
        with pytest.raises(SimulationError, match="truncated"):
            decode_chunk(b"SC1\x01\x00\x00\x00\x00")
        with pytest.raises(SimulationError):
            decode_chunk(b"not a chunk blob")


_reports = st.builds(
    PositionReport,
    time=st.integers(),  # unbounded: wider than any fixed-width field
    car_id=st.integers(min_value=0, max_value=2 ** 31 - 1),
    speed=st.floats(allow_nan=False),
    xway=st.integers(min_value=0, max_value=10),
    lane=st.integers(min_value=0, max_value=4),
    direction=st.integers(min_value=0, max_value=1),
    segment=st.integers(min_value=0, max_value=99),
    position=st.integers(min_value=0, max_value=2 ** 30),
)
_values = st.one_of(
    _reports,
    st.integers(),
    st.text(max_size=8),
    st.binary(max_size=16),
    st.none(),
    st.tuples(st.integers(), st.text(max_size=4)),
)
_rows = st.one_of(
    st.tuples(st.integers(min_value=0, max_value=2 ** 62), _values),
    st.tuples(
        st.integers(min_value=0, max_value=2 ** 62),
        _values,
        st.integers(min_value=0, max_value=2 ** 62),
    ),
)
_payloads = st.dictionaries(
    st.one_of(st.integers(min_value=-3, max_value=3), st.text(max_size=4)),
    st.lists(_rows, max_size=12),
    max_size=4,
)


class TestCodecProperty:
    @settings(max_examples=120, deadline=None)
    @given(payload=_payloads)
    def test_roundtrip_is_exact(self, payload):
        assert_roundtrips(payload)


class TestCodecFailsClosed:
    """A malformed chunk blob is a ``SimulationError``, nothing else."""

    @staticmethod
    def decode_or_error(blob):
        try:
            return decode_chunk(blob)
        except SimulationError as error:
            return error

    @settings(max_examples=150, deadline=None)
    @given(payload=_payloads, data=st.data())
    def test_truncated_blob_never_decodes(self, payload, data):
        blob = encode_chunk(payload)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        result = self.decode_or_error(blob[:cut])
        assert isinstance(result, SimulationError), (cut, result)

    def test_every_flipped_byte_of_an_lr_chunk_is_caught(self, config):
        chunk = {
            group: rows[:5] for group, rows in lr_chunk(config).items()
        }
        assert sum(map(len, chunk.values())) == 20
        blob = encode_chunk(chunk)
        for at in range(len(blob)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytearray(blob)
                flipped[at] ^= mask
                result = self.decode_or_error(bytes(flipped))
                assert isinstance(result, SimulationError), (at, mask)

    def test_every_prefix_of_an_lr_chunk(self, config):
        chunk = {
            group: rows[:20] for group, rows in lr_chunk(config).items()
        }
        blob = encode_chunk(chunk)
        for cut in range(len(blob)):
            with pytest.raises(SimulationError):
                decode_chunk(blob[:cut])

    def test_error_names_offset_and_field(self, config):
        blob = encode_chunk(lr_chunk(config, count=5))
        with pytest.raises(SimulationError, match=r"byte 0: the header"):
            decode_chunk(blob[:6])
        with pytest.raises(SimulationError, match=r"byte \d+: .*rows"):
            decode_chunk(blob[:-1])

    def test_trailing_garbage_is_rejected(self, config):
        chunk = lr_chunk(config, count=5)
        with pytest.raises(SimulationError, match="trailing"):
            decode_chunk(encode_chunk(chunk) + b"\x00")

    def test_worker_error_reply_names_the_chunk(self, config):
        coordinator = ShardCoordinator(config, seed=1, shards=2)
        plan = ShardPlan(lr_chunk(config).keys(), 2)
        coordinator.plan = plan
        try:
            coordinator._spawn(plan)
            blob = encode_chunk(lr_chunk(config, count=5))
            coordinator._conns[0].send(("chunk", 7_000_000, blob[:-3], None))
            with pytest.raises(SimulationError) as excinfo:
                coordinator._recv(0, "ack")
            message = str(excinfo.value)
            assert "worker 0" in message
            assert "chunk @7000000" in message
            assert "truncated at byte" in message
            # The wire carries encoded blobs only: a decoded mapping is
            # as malformed as a torn frame, and is refused the same way.
            coordinator._conns[0].send(
                ("chunk", 8_000_000, lr_chunk(config, count=5), None)
            )
            with pytest.raises(SimulationError) as excinfo:
                coordinator._recv(0, "ack")
            message = str(excinfo.value)
            assert "chunk @8000000" in message
            assert "not an encoded chunk blob" in message
        finally:
            for conn in coordinator._conns:
                conn.send(("stop",))
            for process in coordinator._procs:
                process.join(timeout=10)
            for conn in coordinator._conns:
                conn.close()


# ---------------------------------------------------------------------------
# Credit-based pipelining: output identity
# ---------------------------------------------------------------------------
class TestPipelinedIdentity:
    @pytest.mark.parametrize("inflight", [1, 2, 8])
    def test_lockstep_vs_pipelined_merges_identically(
        self, config, single, inflight
    ):
        result = run_sharded(
            config, seed=1, shards=2, max_inflight=inflight
        )
        assert result.toll_trace == single["toll"]
        assert result.accident_trace == single["accident"]
        assert result.tolls > 0

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("inflight", [1, 4])
    def test_identity_matrix(self, config, single, workers, inflight):
        result = run_sharded(
            config, seed=1, shards=workers, max_inflight=inflight
        )
        assert result.toll_trace == single["toll"]
        assert result.accident_trace == single["accident"]

    def test_migration_under_deep_window(self, config, single):
        result = run_sharded(
            config,
            seed=1,
            shards=2,
            max_inflight=8,
            migrations=[ShardMigration(at_s=20, group=1, to_worker=0)],
        )
        assert result.migrations == [(20 * US_PER_S, 1, 1, 0)]
        assert result.toll_trace == single["toll"]
        assert result.accident_trace == single["accident"]

    def test_backlog_log_is_in_watermark_order(self, config):
        result = run_sharded(config, seed=1, shards=2, max_inflight=8)
        watermarks = [watermark for watermark, _ in result.backlog_log]
        assert watermarks == sorted(watermarks)
        assert len(watermarks) == len(set(watermarks))
        assert watermarks, "pipelined runs must still log telemetry"

    def test_rejects_bad_transport_knobs(self, config):
        with pytest.raises(SimulationError):
            ShardCoordinator(config, max_inflight=0)


class TestFrontierClosePipelining:
    def test_frontier_close_clamps_and_matches(self):
        config = replace(
            small_config(frontier="close"),
            workload=WorkloadConfig(
                duration_s=60, peak_rate=40, seed=1, l_rating=4.0,
                disorder_s=3.0,
            ),
        )
        oracle = run_sharded(config, seed=1, shards=1, max_inflight=1)
        for inflight in (4, 8):
            result = run_sharded(
                config, seed=1, shards=2, max_inflight=inflight
            )
            assert result.toll_trace == oracle.toll_trace
            assert result.accident_trace == oracle.accident_trace
            # The closure protocol needs round N's acks before chunk
            # N+1, so the window clamps to lockstep: one chunk per
            # worker in flight, whatever the requested depth.
            assert (
                result.transport["shard_peak_inflight"] <= result.workers
            )
            assert result.transport["shard_window"] == 1
            assert result.frontier_log == oracle.frontier_log


# ---------------------------------------------------------------------------
# A source fed the rows of a decoded chunk, as the worker feeds them
# ---------------------------------------------------------------------------
def _decoded_rows(rows, group=0):
    """``rows`` after a trip over the wire, as ``ShardWorker`` reads them."""
    return decode_chunk(encode_chunk({group: rows} if rows else {})).get(
        group, ()
    )


class TestFeedColumns:
    def test_feeds_without_row_lists(self):
        source = SourceActor("src")
        source.feed([(10, "a")])
        source.feed(_decoded_rows([(20, "b"), (30, "c")]))
        assert source._pending == [(10, "a"), (20, "b"), (30, "c")]

    def test_strict_source_still_rejects_regressions(self):
        source = SourceActor("src")
        source.feed([(50, "x")])
        with pytest.raises(ActorError):
            source.feed(_decoded_rows([(10, "a"), (20, "b")]))

    def test_empty_batch_is_a_noop(self):
        source = SourceActor("src")
        source.feed(_decoded_rows([]))
        assert source._pending == []


# ---------------------------------------------------------------------------
# A worker's engine, fed chunk by chunk
# ---------------------------------------------------------------------------
class TestWorkerRunTo:
    def test_chunk_by_chunk_run_to_leaves_the_heap_thawed(self, config):
        # Every ``run_to`` is one ``SimulationRuntime.run``: its freeze
        # must not outlive the chunk, or the next chunk (seeing a freeze
        # it takes for the caller's) would never thaw it.
        rows = lr_chunk(config, count=1_200)[0]
        engine = build_shard_engine(config, 1, "xway", 0)
        for at in range(0, len(rows), 300):
            chunk = rows[at:at + 300]
            engine.feed(chunk)
            engine.run_to(chunk[-1][0])
            assert gc.get_freeze_count() == 0
        engine.drain(config.workload.duration_s * US_PER_S)
        assert gc.get_freeze_count() == 0
        assert engine.director.total_internal_firings > 0


# ---------------------------------------------------------------------------
# Canonical sink payloads
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _Leg:
    segment: int
    miles: float


@dataclass(frozen=True)
class _Trip:
    car_id: int
    legs: list
    last: _Leg


@dataclass(frozen=True)
class _Lone:
    only: int


class TestCanonicalPayload:
    def test_mapping_payloads_canonicalise_as_their_items(self):
        # A dict has a ``values`` *method*: the Window branch used to
        # take it and raise "'builtin_function_or_method' object is not
        # iterable" for any sink that receives records.
        sink = SinkActor("sink")
        sink.items.append((130, CWEvent({"car": 1, "toll": 2.5}, 10, WaveTag.root(1))))
        sink.items.append((140, Token({"car": 2, "toll": 0.0})))
        records = canonical_trace(sink)
        assert records == [
            (10, (("car", 1), ("toll", 2.5))),
            (0, (("car", 2), ("toll", 0.0))),
        ]
        assert pickle.loads(pickle.dumps(records)) == records

    def test_a_window_payload_is_still_its_values(self):
        window = Window(
            [CWEvent(value, 5, WaveTag.root(n)) for n, value in enumerate("ab")],
            "k",
        )
        assert _canonical_payload(window) == ("a", "b")

    @pytest.mark.parametrize(
        "payload",
        [
            PositionReport(3, 7, 55.0, 0, 1, 0, 4, 21_500),
            StoppedCar(PositionReport(3, 7, 0.0, 0, 1, 0, 4, 21_500), 93),
            Accident(0, 1, 4, 21_500, 93, (7, 9)),
            SegmentCrossing(PositionReport(33, 7, 61.5, 0, 1, 0, 5, 26_400), 4),
            TollNotification(7, 33, 4.5, 0, 1, 5, 38.25, 51),
            TollNotification(7, 33, 0.0, 0, 1, 5),
            AccidentAlert(7, 33, 0, 1, 8),
            SegmentStat(0, 1, 5, 2, 38.25),
            _Trip(7, [_Leg(4, 1.0), _Leg(5, 0.5)], _Leg(5, 0.5)),
            _Lone(4),
        ],
        ids=lambda payload: type(payload).__name__,
    )
    def test_dataclass_payloads_equal_astuple(self, payload):
        item = CWEvent(payload, 5, WaveTag.root(1))  # as a sink holds it
        expected = (type(payload).__name__,) + astuple(payload)
        for _ in range(2):  # the second call reads the cached getter
            assert _canonical_payload(item) == expected


# ---------------------------------------------------------------------------
# Dead-worker surfacing (the _recv bugfix)
# ---------------------------------------------------------------------------
class TestDeadWorker:
    def test_killed_worker_raises_simulation_error(self, config):
        coordinator = ShardCoordinator(config, seed=1, shards=2)
        workload = LinearRoadWorkload(replace(config.workload, seed=1))
        slices = partition_arrivals(
            workload.arrivals(), shard_key_fn("xway")
        )
        plan = ShardPlan(slices.keys(), 2)
        coordinator.plan = plan
        try:
            coordinator._spawn(plan)
            victim = coordinator._procs[0]
            victim.terminate()
            victim.join(timeout=10)
            with pytest.raises(SimulationError) as excinfo:
                coordinator._recv(0, "ack")
            message = str(excinfo.value)
            assert "worker 0" in message
            assert "exit code" in message
        finally:
            for conn in coordinator._conns:
                try:
                    conn.send(("stop",))
                except (OSError, ValueError):
                    pass
            for process in coordinator._procs:
                process.join(timeout=10)
                if process.is_alive():
                    process.terminate()
            for conn in coordinator._conns:
                conn.close()


    @staticmethod
    def run_with_worker_1_stopped(when, config):
        """Run 2 workers, SIGSTOP worker 1 at *when* ("ready": once it
        is up; "ack": after its first ack); (error message, pid, s)."""
        stopped = []

        def stop(coordinator):
            if not stopped:
                stopped.append(coordinator._procs[1].pid)
                os.kill(stopped[0], signal.SIGSTOP)

        class Stopping(ShardCoordinator):
            def _spawn(self, plan):
                super()._spawn(plan)
                if when == "ready":
                    stop(self)

            def _drain_one_ack(self, worker):
                super()._drain_one_ack(worker)
                if when == "ack" and worker == 1:
                    stop(self)

        started = time.monotonic()
        try:
            with pytest.raises(SimulationError) as excinfo:
                Stopping(config, seed=1, shards=2).run()
        finally:
            for pid in stopped:
                for signum in (signal.SIGCONT, signal.SIGKILL):
                    try:
                        os.kill(pid, signum)
                    except ProcessLookupError:
                        pass
        assert stopped
        return str(excinfo.value), stopped[0], time.monotonic() - started

    def test_a_wedged_worker_misses_its_ack_deadline(self):
        """SIGSTOP one of two workers after its first ack: the run raises
        within the deadline, naming the worker, its pid and the chunk."""
        config = small_config()
        config = replace(
            config, workload=replace(config.workload, duration_s=120)
        )
        message, pid, elapsed = self.run_with_worker_1_stopped("ack", config)
        assert f"shard worker 1 (pid {pid}) sent no ack" in message
        assert re.search(r"within the [\d.]+ s deadline", message)
        assert re.search(r"chunk has watermark \d+0000000 us", message)
        assert elapsed <= 15

    def test_the_first_ack_has_its_own_deadline(self, monkeypatch):
        """Before any ack there is no wait to scale from: a worker wedged
        on its first chunk is held to ACK_DEADLINE_FIRST_S."""
        monkeypatch.setattr(coordinator_module, "ACK_DEADLINE_FIRST_S", 0.5)
        message, pid, elapsed = self.run_with_worker_1_stopped(
            "ready", small_config()
        )
        assert f"shard worker 1 (pid {pid})" in message
        assert "within the 0.5 s deadline" in message
        assert "chunk has watermark 10000000 us" in message
        assert elapsed <= 15


# ---------------------------------------------------------------------------
# Telemetry: trace events, counters, Prometheus
# ---------------------------------------------------------------------------
class TestTransportTelemetry:
    def test_encode_decode_trace_events(self, config):
        chunk = lr_chunk(config, count=10)
        with use_tracer(RecordingTracer()) as tracer:
            decode_chunk(encode_chunk(chunk, now_us=123))
        names = [record.name for record in tracer.records()]
        assert "shard.chunk.encode" in names
        assert "shard.chunk.decode" in names
        encode = next(
            record for record in tracer.records()
            if record.name == "shard.chunk.encode"
        )
        assert encode.ts == 123
        assert encode.args["bytes"] > 0

    def test_coordinator_emits_encode_events(self, config):
        coordinator = ShardCoordinator(config, seed=1, shards=2)
        with use_tracer(RecordingTracer()) as tracer:
            result = coordinator.run()
        assert result.tolls > 0
        assert any(
            record.name == "shard.chunk.encode"
            for record in tracer.records()
        )

    def test_counters_surface_via_snapshot_and_prometheus(self, config):
        coordinator = ShardCoordinator(
            config, seed=1, shards=2, max_inflight=4
        )
        result = coordinator.run()
        engine = coordinator.statistics.snapshot(0)["__engine__"]
        assert engine["shard_bytes_sent"] > 0
        assert engine["shard_chunks_sent"] > 0
        assert engine["shard_encode_us"] >= 0
        assert engine["shard_peak_inflight"] >= 2
        assert engine["shard_chunks_inflight"] == 0  # all drained
        assert result.transport == {**engine, "shard_window": 4}
        text = export_prometheus(coordinator.statistics, now_us=0)
        assert "repro_engine_shard_bytes_sent" in text
        assert "repro_engine_shard_chunks_inflight" in text
        assert "repro_engine_shard_encode_us" in text


# ---------------------------------------------------------------------------
# CLI summary + manifests from before the knobs were removed
# ---------------------------------------------------------------------------
class TestPlumbing:
    def test_manifests_carrying_the_removed_knobs_still_load(self):
        config = small_config()
        meta = checkpoint_meta(config, seed=1)
        assert not any(key.startswith("shard_") for key in meta)
        meta.update(
            shard_inflight=8, shard_codec="pickle", shard_adaptive_chunk=True
        )
        rebuilt, seed = config_from_meta(meta)
        assert seed == 1
        assert rebuilt == config

    @pytest.mark.parametrize(
        "flags, window",
        [([], 4), (["--out-of-order", "close"], 1)],
        ids=["plain", "frontier-close"],
    )
    def test_cli_summary_prints_the_effective_window(
        self, capsys, flags, window
    ):
        """Frontier-close runs clamp the credit window; say so."""
        code = main(
            ["--duration", "30", "--seeds", "1", *flags, "run", "fifo",
             "--shards", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"(window {window}/worker)" in out

"""The pipelined shard data plane (``repro.shard.codec`` + coordinator).

Covers the transport end to end: codec round-trips (columnar fast
path, per-group pickle-5 fallback, out-of-band buffers, a Hypothesis
property over arbitrary payloads), credit-based pipelining
(lockstep-vs-pipelined merged-trace equality at several in-flight
depths, frontier-close clamping, mid-run migration under a deep
window), the columnar source fast path (``SourceActor.feed_columns``),
dead-worker error surfacing in ``ShardCoordinator._recv``, transport
telemetry (trace events, engine counters, Prometheus export), the CLI
summary line, and manifests written while the plane still had knobs.
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
    ColumnarBatch,
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


def normalize(decoded):
    """Decoded payload -> row lists, whatever each group's encoding."""
    return {
        group: rows.rows() if isinstance(rows, ColumnarBatch) else rows
        for group, rows in decoded.items()
    }


# ---------------------------------------------------------------------------
# Codec round-trips
# ---------------------------------------------------------------------------
class TestCodec:
    def test_struct_roundtrips_lr_chunk_columnar(self, config):
        chunk = lr_chunk(config)
        decoded = decode_chunk(encode_chunk(chunk))
        # The homogeneous LR fast path decodes into columns, and the
        # round trip is repr-exact (the merge key compares repr).
        for group, rows in chunk.items():
            batch = decoded[group]
            assert isinstance(batch, ColumnarBatch)
            assert batch.rows() == rows
            assert list(map(repr, batch.values)) == [
                repr(value) for _, value in rows
            ]

    def test_struct_beats_pickle_on_lr_chunks(self, config):
        chunk = lr_chunk(config)
        blob = encode_chunk(chunk)
        assert len(blob) < len(pickle.dumps(chunk, protocol=5))

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
            # The same batch and field values, each report rebuilt by the
            # dataclass constructor.
            batch = decoded()
            batch.values[:] = [
                PositionReport(*astuple(report)) for report in batch.values
            ]
            return batch

        assert isinstance(decoded(), ColumnarBatch)
        # A dict per report would add ~180 B each; 8 B a report absorbs
        # what other threads of the test process allocate meanwhile.
        assert retained_bytes(decoded) <= (
            retained_bytes(constructed) + 8 * len(rows)
        )

    def test_empty_payloads(self):
        assert decode_chunk(encode_chunk({})) == {}
        assert normalize(decode_chunk(encode_chunk({0: []}))) == {0: []}

    def test_mixed_chunk_takes_fallback_per_group(self, config):
        report = lr_chunk(config, count=1)[0][0][1]
        payload = {
            0: [(1, report), (2, report)],  # homogeneous -> columnar
            1: [(3, "late"), (4, None)],  # mixed -> pickled rows
        }
        decoded = decode_chunk(encode_chunk(payload))
        assert isinstance(decoded[0], ColumnarBatch)
        assert isinstance(decoded[1], list)
        assert normalize(decoded) == payload

    def test_disorder_triples_roundtrip(self, config):
        rows = lr_chunk(config, count=20)[0]
        triples = [
            (ts + 5, value, ts) for ts, value in rows
        ]
        decoded = decode_chunk(encode_chunk({2: triples}))
        assert decoded[2].event_ts is not None
        assert decoded[2].rows() == triples

    def test_int64_overflow_falls_back_to_pickle(self, config):
        report = lr_chunk(config, count=1)[0][0][1]
        payload = {0: [(2 ** 70, report)]}
        decoded = decode_chunk(encode_chunk(payload))
        assert isinstance(decoded[0], list)
        assert decoded[0] == payload[0]

    def test_wide_report_field_falls_back(self):
        report = PositionReport(
            time=2 ** 40, car_id=1, speed=1.0, xway=0, lane=0,
            direction=0, segment=0, position=0,
        )
        payload = {0: [(5, report)]}
        assert normalize(
            decode_chunk(encode_chunk(payload))
        ) == payload

    def test_rejects_unknown_codec_and_garbage(self):
        # Frame kind 0 was the whole-payload pickle codec's.
        blob = bytearray(encode_chunk({}))
        blob[3] = 0
        with pytest.raises(SimulationError, match="frame kind 0"):
            decode_chunk(bytes(blob))
        with pytest.raises(SimulationError):
            decode_chunk(b"not a chunk blob")

    def test_out_of_band_buffers_are_framed(self):
        payload = {"blob": [(1, _BlobValue(b"\xab" * 4096))]}
        assert normalize(decode_chunk(encode_chunk(payload))) == payload


class _BlobValue:
    """A payload whose protocol-5 pickling exports out-of-band buffers."""

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


_reports = st.builds(
    PositionReport,
    time=st.integers(),  # unbounded: exercises the int64/32 fallback
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
        decoded = normalize(decode_chunk(encode_chunk(payload)))
        assert decoded == payload
        # repr-exactness, group by group: the deterministic merge key
        # is ``(ts, repr(payload))``, so value-equality is not enough.
        for group, rows in payload.items():
            assert list(map(repr, decoded[group])) == list(map(repr, rows))


def header_offsets(blob: bytes) -> list:
    """Byte offsets of every structural header field of a valid blob.

    Magic, frame kind, group / buffer counts, key and body lengths, group
    kinds and row counts — everything ``decode_chunk`` steers by, as
    opposed to the pickled or packed data those fields delimit.
    """
    offsets = list(range(8))  # magic, frame kind, u32 group count

    def u(at, size):
        offsets.extend(range(at, at + size))
        return int.from_bytes(blob[at:at + size], "little")

    def framed_pickle(at):
        nbuffers = u(at, 4)
        at += 4
        for _ in range(nbuffers):
            at += 8 + u(at, 8)
        return at + 8 + u(at, 8)

    at = 8
    for _ in range(int.from_bytes(blob[4:8], "little")):
        at += 4 + u(at, 4)  # key length, key
        offsets.append(at)  # group kind
        if blob[at] == 0:
            u(at + 1, 8)
            at = framed_pickle(at + 9)
        else:
            count = u(at + 1, 4)
            at += 5 + count * (52 if blob[at] == 2 else 44)
    assert at == len(blob)
    return sorted(set(offsets))


class TestCodecFailsClosed:
    """A malformed SC1 blob is a ``SimulationError``, nothing else."""

    @staticmethod
    def decode_or_error(blob):
        try:
            return normalize(decode_chunk(blob))
        except SimulationError as error:
            return error

    @settings(max_examples=150, deadline=None)
    @given(payload=_payloads, data=st.data())
    def test_truncated_blob_never_decodes(self, payload, data):
        blob = encode_chunk(payload)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        result = self.decode_or_error(blob[:cut])
        assert isinstance(result, SimulationError), (cut, result)

    @settings(max_examples=250, deadline=None)
    @given(payload=_payloads, data=st.data())
    def test_flipped_header_byte_is_caught_or_harmless(self, payload, data):
        blob = encode_chunk(payload)
        at = data.draw(st.sampled_from(header_offsets(blob)))
        flipped = bytearray(blob)
        flipped[at] ^= data.draw(st.integers(min_value=1, max_value=255))
        result = self.decode_or_error(bytes(flipped))
        if not isinstance(result, SimulationError):
            assert result == payload, (at, result)

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
        with pytest.raises(SimulationError, match=r"byte 4: group count"):
            decode_chunk(blob[:6])
        with pytest.raises(SimulationError, match=r"byte \d+: .*rows"):
            decode_chunk(blob[:-1])

    def test_trailing_garbage_is_rejected(self, config):
        chunk = lr_chunk(config, count=5)
        with pytest.raises(SimulationError, match="trailing"):
            decode_chunk(encode_chunk(chunk) + b"\x00")

    def test_overwritten_group_count_cannot_drop_a_group(self, config):
        chunk = lr_chunk(config, count=5)
        assert len(chunk) >= 2
        blob = bytearray(encode_chunk(chunk))
        blob[4:8] = (1).to_bytes(4, "little")
        with pytest.raises(SimulationError, match="trailing"):
            decode_chunk(bytes(blob))

    def test_unknown_group_kind_is_rejected(self, config):
        report = lr_chunk(config, count=1)[0][0][1]
        blob = bytearray(encode_chunk({0: [(1, report)]}))
        kind_at = 8 + 4 + int.from_bytes(blob[8:12], "little")
        assert blob[kind_at] == 1
        blob[kind_at] = 9
        with pytest.raises(SimulationError, match="group kind 9"):
            decode_chunk(bytes(blob))

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
            # The wire carries SC1 blobs only: a decoded mapping is as
            # malformed as a torn frame, and is refused the same way.
            coordinator._conns[0].send(
                ("chunk", 8_000_000, lr_chunk(config, count=5), None)
            )
            with pytest.raises(SimulationError) as excinfo:
                coordinator._recv(0, "ack")
            message = str(excinfo.value)
            assert "chunk @8000000" in message
            assert "not an SC1 blob" in message
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
# Columnar source feeding
# ---------------------------------------------------------------------------
class TestFeedColumns:
    def test_feeds_without_row_lists(self):
        source = SourceActor("src")
        source.feed([(10, "a")])
        source.feed_columns((20, 30), ("b", "c"))
        assert source._pending == [(10, "a"), (20, "b"), (30, "c")]

    def test_triple_columns_for_disorder_sources(self):
        source = SourceActor("src", out_of_order=True, disorder_us=5)
        source.feed_columns((20, 30), ("b", "c"), (18, 27))
        assert source._pending == [(20, "b", 18), (30, "c", 27)]

    def test_unsorted_batch_falls_back_to_feed(self):
        source = SourceActor("src", out_of_order=True)
        source.feed_columns((30, 10), ("b", "a"))
        assert source._pending == [(10, "a"), (30, "b")]

    def test_strict_source_still_rejects_regressions(self):
        source = SourceActor("src")
        source.feed([(50, "x")])
        with pytest.raises(ActorError):
            source.feed_columns((10, 20), ("a", "b"))

    def test_empty_batch_is_a_noop(self):
        source = SourceActor("src")
        source.feed_columns((), ())
        assert source._pending == []


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

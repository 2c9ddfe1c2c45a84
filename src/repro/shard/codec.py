"""Compact binary codec for the shard data plane's chunk payloads.

The coordinator ships *arrival chunks* to its workers: per-group lists
of ``(delivery_us, value)`` pairs or ``(delivery_us, value,
event_ts_us)`` disorder triples.  Default ``multiprocessing`` pickling
serializes every row tuple and every payload object individually —
per-object memo lookups, per-field dispatch, framing overhead on each
:class:`~repro.linearroad.types.PositionReport`.  This module replaces
it with two cooperating encodings chosen per group by data shape and
recorded in the frame (so the two ends never need to negotiate):

* **struct-packed columnar** (``_GROUP_PAIRS``/``_GROUP_TRIPLES``) for
  homogeneous ``PositionReport`` chunks — the Linear Road fast path.
  One fixed-width little-endian column per field (int64 timestamps,
  int32 report fields, float64 ``speed``), no per-row object overhead,
  and the columns decode straight back into a
  :class:`ColumnarBatch` of parallel columns so the source can ingest
  the chunk without materializing an intermediate tuple list.
* **pickle protocol 5 with out-of-band buffer framing**
  (``_GROUP_PICKLE``) for everything else: mixed-type chunks, non-LR
  payloads, ints too wide for int64.
  Buffers exported via ``buffer_callback`` are spliced into the wire
  blob verbatim and handed back to ``pickle.loads`` as zero-copy
  memoryview slices of the received blob.

``decode_chunk(encode_chunk(slices))`` round-trips byte-equal payloads
for arbitrary values (property-tested in ``tests``); ``repr`` is
preserved exactly, which the deterministic trace merge key relies on.
"""

from __future__ import annotations

import pickle
import struct
from operator import attrgetter
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..core.exceptions import SimulationError
from ..linearroad.types import new_report, PositionReport
from ..observability import tracer as _obs

#: Wire-format magic + version; bump on any layout change.
_MAGIC = b"SC1"
#: The one frame kind (byte after the magic): a per-group container,
#: one sub-encoding each.  Kind 0 was a whole-payload pickle frame.
_FRAME_COLUMNAR = 1

#: Per-group sub-encodings inside a columnar frame.
_GROUP_PICKLE = 0  # framed pickle of the row list
_GROUP_PAIRS = 1  # columns for (delivery_us, report) rows
_GROUP_TRIPLES = 2  # columns for (delivery_us, report, event_ts_us)

#: ``PositionReport`` integer columns, in wire order, packed int32 —
#: every LR field fits comfortably (a group with wider values falls
#: back to pickle via ``struct.error``).  Timestamp columns stay int64
#: (microseconds outgrow int32 within ~36 minutes of stream time);
#: ``speed`` is the one float64 column and travels last.
_INT_FIELDS = ("time", "car_id", "xway", "lane", "direction", "segment",
               "position")
_INT_GETTERS = tuple(attrgetter(name) for name in _INT_FIELDS)

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class ColumnarBatch:
    """One decoded fast-path group: parallel columns, no row tuples.

    ``ts`` is the delivery-time column, ``values`` the reconstructed
    payload objects and ``event_ts`` the disorder event-time column
    (``None`` when the rows were in-order pairs).  The shard source
    ingests these columns directly (``SourceActor.feed_columns``);
    :meth:`rows` materializes the equivalent tuple list for generic
    consumers and tests.
    """

    __slots__ = ("ts", "values", "event_ts")

    def __init__(
        self,
        ts: Sequence[int],
        values: Sequence[Any],
        event_ts: Optional[Sequence[int]] = None,
    ):
        self.ts = ts
        self.values = values
        self.event_ts = event_ts

    def __len__(self) -> int:
        return len(self.ts)

    def rows(self) -> list:
        """The equivalent ``(ts, value[, event_ts])`` tuple list."""
        if self.event_ts is None:
            return list(zip(self.ts, self.values))
        return list(zip(self.ts, self.values, self.event_ts))


#: What ``decode_chunk`` hands back per group.
DecodedGroup = Union[List[tuple], ColumnarBatch]


def _columnar_arity(items: Sequence[tuple]) -> Optional[int]:
    """2 or 3 when *items* is a homogeneous struct-packable chunk.

    Strict ``type`` checks (not ``isinstance``) keep the fast path
    repr-exact: a bool in an int64 column or an int speed would decode
    as a different type, and the merge key compares ``repr``.
    Out-of-range ints are caught later by ``struct.error`` fallback.
    """
    first = items[0]
    arity = len(first)
    if arity not in (2, 3):
        return None
    for item in items:
        report = item[1]
        if (
            len(item) != arity
            or type(item[0]) is not int
            or type(report) is not PositionReport
            or type(report.time) is not int
            or type(report.car_id) is not int
            or type(report.speed) is not float
            or type(report.xway) is not int
            or type(report.lane) is not int
            or type(report.direction) is not int
            or type(report.segment) is not int
            or type(report.position) is not int
            or (arity == 3 and type(item[2]) is not int)
        ):
            return None
    return arity


def _encode_columnar(items: Sequence[tuple], arity: int) -> bytes:
    """Pack a homogeneous report chunk as fixed-width columns."""
    count = len(items)
    pack_i64 = struct.Struct("<%dq" % count).pack
    pack_i32 = struct.Struct("<%di" % count).pack
    pack_f64 = struct.Struct("<%dd" % count).pack
    kind = _GROUP_PAIRS if arity == 2 else _GROUP_TRIPLES
    parts = [bytes([kind]), _U32.pack(count)]
    parts.append(pack_i64(*[item[0] for item in items]))
    if arity == 3:
        parts.append(pack_i64(*[item[2] for item in items]))
    reports = [item[1] for item in items]
    for getter in _INT_GETTERS:
        parts.append(pack_i32(*[getter(report) for report in reports]))
    parts.append(pack_f64(*[report.speed for report in reports]))
    return b"".join(parts)


def _need(view: memoryview, offset: int, size: int, what: str) -> None:
    """Fail closed when *what* (*size* bytes at *offset*) is cut short."""
    if offset + size > len(view):
        raise SimulationError(
            f"shard chunk blob truncated at byte {offset}: {what} needs "
            f"{size} bytes, {len(view) - offset} left"
        )


def _read_uint(
    view: memoryview, offset: int, fmt: struct.Struct, what: str
) -> int:
    _need(view, offset, fmt.size, what)
    return fmt.unpack_from(view, offset)[0]


def _unpickle(
    view: memoryview, offset: int, size: int, what: str, buffers=()
) -> Any:
    _need(view, offset, size, what)
    try:
        return pickle.loads(view[offset:offset + size], buffers=buffers)
    except Exception as error:  # noqa: BLE001 - garbage raises anything
        raise SimulationError(
            f"shard chunk blob corrupt at byte {offset}: {what} does not "
            f"unpickle ({type(error).__name__}: {error})"
        ) from None


def _decode_columnar(
    view: memoryview, offset: int
) -> Tuple[ColumnarBatch, int]:
    """Rebuild a :class:`ColumnarBatch` from packed columns."""
    kind = view[offset]
    offset += 1
    count = _read_uint(view, offset, _U32, "columnar row count")
    offset += 4
    width = 8 * (3 if kind == _GROUP_TRIPLES else 2) + 4 * len(_INT_FIELDS)
    _need(view, offset, count * width, f"{count} columnar rows")
    unpack_i64 = struct.Struct("<%dq" % count)
    unpack_i32 = struct.Struct("<%di" % count)
    unpack_f64 = struct.Struct("<%dd" % count)

    def next_column(fmt: struct.Struct) -> tuple:
        nonlocal offset
        column = fmt.unpack_from(view, offset)
        offset += fmt.size
        return column

    ts = next_column(unpack_i64)
    event_ts = next_column(unpack_i64) if kind == _GROUP_TRIPLES else None
    times, car_ids, xways, lanes, directions, segments, positions = [
        next_column(unpack_i32) for _ in _INT_FIELDS
    ]
    speeds = next_column(unpack_f64)
    # ``new_report`` skips the frozen-dataclass ``__init__`` on the
    # per-row hot path without giving each report a ``__dict__`` of its
    # own: a decoded report is as small as a constructed one.
    values = list(map(new_report, times, car_ids, speeds, xways, lanes,
                      directions, segments, positions))
    return ColumnarBatch(ts, values, event_ts), offset


def _frame_pickle(obj: Any) -> bytes:
    """Protocol-5 pickle with out-of-band buffers framed in-line.

    Layout: u32 buffer count, then per buffer u64 length + raw bytes,
    then u64 pickle length + the pickle stream.  Exported buffers are
    spliced verbatim (no re-copy through the pickle stream) and decoded
    as memoryview slices of the received blob.
    """
    buffers: List[pickle.PickleBuffer] = []
    try:
        main = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        raws = [buffer.raw() for buffer in buffers]
    except BufferError:
        # A non-contiguous out-of-band buffer: re-dump with everything
        # carried in-band (still protocol 5, just no splicing).
        main = pickle.dumps(obj, protocol=5)
        raws = []
    parts = [_U32.pack(len(raws))]
    for raw in raws:
        parts.append(_U64.pack(raw.nbytes))
        parts.append(raw)
    parts.append(_U64.pack(len(main)))
    parts.append(main)
    return b"".join(parts)


def _read_framed_pickle(view: memoryview, offset: int) -> Tuple[Any, int]:
    """Decode one :func:`_frame_pickle` frame starting at *offset*."""
    nbuffers = _read_uint(view, offset, _U32, "pickle frame buffer count")
    offset += 4
    buffers = []
    for _ in range(nbuffers):
        size = _read_uint(view, offset, _U64, "out-of-band buffer length")
        offset += 8
        _need(view, offset, size, "out-of-band buffer")
        buffers.append(view[offset:offset + size])
        offset += size
    size = _read_uint(view, offset, _U64, "pickle stream length")
    offset += 8
    obj = _unpickle(view, offset, size, "pickle stream", buffers)
    return obj, offset + size


def encode_chunk(
    slices: Dict[Hashable, Sequence[tuple]], now_us: int = 0
) -> bytes:
    """Encode one per-worker chunk payload ``{group: rows}`` to a blob.

    Each group is packed columnar when its rows are homogeneous
    ``PositionReport`` pairs/triples and falls back to a framed pickle
    otherwise — a pure data-shape decision, recorded in the frame, so
    :func:`decode_chunk` needs no hint.
    """
    parts = [_MAGIC, bytes([_FRAME_COLUMNAR]), _U32.pack(len(slices))]
    for group, items in slices.items():
        key = pickle.dumps(group, protocol=5)
        parts.append(_U32.pack(len(key)))
        parts.append(key)
        encoded = None
        if items:
            arity = _columnar_arity(items)
            if arity is not None:
                try:
                    encoded = _encode_columnar(items, arity)
                except struct.error:
                    # An int column overflowed int64: this group
                    # rides the pickle fallback instead.
                    encoded = None
        if encoded is None:
            body = _frame_pickle(list(items))
            encoded = b"".join(
                (bytes([_GROUP_PICKLE]), _U64.pack(len(body)), body)
            )
        parts.append(encoded)
    blob = b"".join(parts)
    if _obs.ENABLED:
        _obs._TRACER.instant(
            "shard.chunk.encode",
            now_us,
            bytes=len(blob),
            groups=len(slices),
        )
    return blob


def decode_chunk(
    blob: Union[bytes, bytearray, memoryview], now_us: int = 0
) -> Dict[Hashable, DecodedGroup]:
    """Decode a wire blob back into ``{group: rows-or-columns}``.

    Columnar groups come back as :class:`ColumnarBatch`; pickled groups
    come back as the original row lists.
    Fails closed: a truncated, corrupt or over-long blob raises
    :class:`SimulationError` naming the byte offset and what was being
    read there — never another exception type, never a partial payload.
    """
    view = memoryview(blob)
    if bytes(view[:3]) != _MAGIC:
        raise SimulationError(
            "shard chunk blob is not SC1-framed (corrupt or foreign data)"
        )
    _need(view, 3, 1, "frame kind")
    frame = view[3]
    offset = 4
    if frame == _FRAME_COLUMNAR:
        ngroups = _read_uint(view, offset, _U32, "group count")
        offset += 4
        slices = {}
        for _ in range(ngroups):
            key_len = _read_uint(view, offset, _U32, "group key length")
            offset += 4
            group = _unpickle(view, offset, key_len, "group key")
            try:
                hash(group)
            except TypeError:
                raise SimulationError(
                    f"shard chunk blob corrupt at byte {offset}: group key "
                    f"is an unhashable {type(group).__name__}"
                ) from None
            offset += key_len
            _need(view, offset, 1, "group kind")
            kind = view[offset]
            if kind == _GROUP_PICKLE:
                body_len = _read_uint(
                    view, offset + 1, _U64, "pickled group length"
                )
                offset += 1 + 8
                slices[group], end = _read_framed_pickle(view, offset)
                if end - offset != body_len:
                    raise SimulationError(
                        f"shard chunk blob corrupt at byte {offset}: pickled "
                        f"group spans {end - offset} bytes, header says "
                        f"{body_len}"
                    )
                offset = end
            elif kind in (_GROUP_PAIRS, _GROUP_TRIPLES):
                slices[group], offset = _decode_columnar(view, offset)
            else:
                raise SimulationError(
                    f"shard chunk blob corrupt at byte {offset}: unknown "
                    f"group kind {kind}"
                )
        if len(slices) != ngroups:
            raise SimulationError(
                f"shard chunk blob corrupt: {ngroups} groups framed, "
                f"{len(slices)} distinct keys"
            )
    else:
        raise SimulationError(
            f"unknown shard chunk frame kind {frame} (blob of a newer "
            "codec version?)"
        )
    if offset != len(view):
        raise SimulationError(
            f"shard chunk blob has {len(view) - offset} trailing bytes "
            f"after byte {offset} (group count overwritten?)"
        )
    if _obs.ENABLED:
        _obs._TRACER.instant(
            "shard.chunk.decode",
            now_us,
            bytes=len(view),
            groups=len(slices),
        )
    return slices

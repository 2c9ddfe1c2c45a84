"""The shard data plane's chunk wire format: one checked pickle.

The coordinator ships *arrival chunks* to its workers: per-group lists
of ``(delivery_us, value)`` pairs or ``(delivery_us, value,
event_ts_us)`` disorder triples, the rows a push source takes.  A blob
is one protocol-5 pickle of that ``{group: rows}`` mapping behind an
8-byte header: the body's length and its ``zlib.crc32``, both u32
little-endian.  :class:`~repro.linearroad.types.PositionReport` pickles
through ``types.new_report``, as compactly as its eight fields allow,
so the Linear Road stream needs no format of its own.

``decode_chunk(encode_chunk(slices))`` round-trips the rows exactly,
``repr`` included, which the deterministic trace merge key relies on.
The CRC opens no new trust boundary (``Connection.recv`` unpickles every
pipe message anyway): it catches a torn or bit-flipped blob before the
unpickler sees it.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Dict, Hashable, Sequence

from ..core.exceptions import SimulationError
from ..observability import tracer as _obs

#: Body length, then the body's ``zlib.crc32``.
_HEADER = struct.Struct("<II")


def encode_chunk(
    slices: Dict[Hashable, Sequence[tuple]], now_us: int = 0
) -> bytes:
    """Encode one per-worker chunk payload ``{group: rows}`` to a blob."""
    body = pickle.dumps(slices, protocol=5)
    blob = _HEADER.pack(len(body), zlib.crc32(body)) + body
    if _obs.ENABLED:
        _obs._TRACER.instant(
            "shard.chunk.encode",
            now_us,
            bytes=len(blob),
            groups=len(slices),
        )
    return blob


def decode_chunk(
    blob: bytes | bytearray | memoryview, now_us: int = 0
) -> Dict[Hashable, list]:
    """Decode a wire blob back into ``{group: rows}``.

    Fails closed: a truncated, over-long or corrupt blob raises
    :class:`SimulationError` saying what is wrong where — never another
    exception type, never a partial payload.
    """
    view = memoryview(blob)
    if len(view) < _HEADER.size:
        raise SimulationError(
            f"shard chunk blob truncated at byte 0: the header needs "
            f"{_HEADER.size} bytes, {len(view)} left"
        )
    size, crc = _HEADER.unpack_from(view)
    body = view[_HEADER.size:]
    if len(body) < size:
        raise SimulationError(
            f"shard chunk blob truncated at byte {_HEADER.size}: the "
            f"pickled rows need {size} bytes, {len(body)} left"
        )
    if len(body) > size:
        raise SimulationError(
            f"shard chunk blob has {len(body) - size} trailing bytes "
            f"after byte {_HEADER.size + size}"
        )
    if zlib.crc32(body) != crc:
        raise SimulationError(
            f"shard chunk blob corrupt: the {size}-byte body fails its "
            "CRC-32 check"
        )
    try:
        slices = pickle.loads(body)
    except Exception as error:  # noqa: BLE001 - garbage raises anything
        raise SimulationError(
            f"shard chunk blob corrupt at byte {_HEADER.size}: the body "
            f"does not unpickle ({type(error).__name__}: {error})"
        ) from None
    if type(slices) is not dict:
        raise SimulationError(
            f"shard chunk blob corrupt: the body is a "
            f"{type(slices).__name__}, not a {{group: rows}} dict"
        )
    if _obs.ENABLED:
        _obs._TRACER.instant(
            "shard.chunk.decode",
            now_us,
            bytes=len(view),
            groups=len(slices),
        )
    return slices

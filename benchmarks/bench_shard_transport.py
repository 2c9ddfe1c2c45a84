"""Shard transport plane: pipelined-codec shipping, per chunk.

The data-plane number of the shard transport (``repro.shard.codec`` +
the credit-window coordinator loop): time to encode, ship and ack a
fixed stream of Linear Road chunks through a ``multiprocessing`` pipe to
an echo worker, the way the coordinator ships them — chunks packed by
:func:`repro.shard.codec.encode_chunk` (one CRC-checked protocol-5
pickle per chunk, each report pickled through ``types.new_report``) with
a credit window of 8, so encode and pipe I/O overlap the worker's decode
of earlier chunks.

The echo worker acks every chunk with its decoded row count, and the
bench asserts the full stream arrived intact, so a faster time can never
come from dropping work.  Chunk shape is the production rate: 4 shard
groups x 500 rows is ~10 s of the paper's ~200 reports/s workload.

Gated by ``make bench-shard-transport``: the absolute mean vs.
``baselines/shard_transport.json``, so transport overhead cannot
silently blow up.
"""

import multiprocessing
import time

from repro.linearroad.types import PositionReport
from repro.shard.codec import decode_chunk, encode_chunk

#: 4 groups x 500 rows = 2 000 rows/chunk — ~10 s of the paper's ~200
#: reports/s Linear Road feed, split across four xway shard groups.
GROUPS = 4
ROWS = 500
CHUNKS = 60

#: Credit window of the pipelined variant (the coordinator default is 4;
#: 8 keeps the pipe saturated against a single echo worker).
WINDOW = 8


def make_chunks() -> list:
    """Synthesize the chunk stream."""
    chunks = []
    ts = 0
    for c in range(CHUNKS):
        chunk = {}
        for g in range(GROUPS):
            rows = []
            for i in range(ROWS):
                ts += 37
                rows.append(
                    (
                        ts,
                        PositionReport(
                            time=ts // 1_000_000,
                            car_id=(c * 31 + i) % 5_000,
                            speed=float(30 + (i % 40)),
                            xway=g,
                            lane=i % 5,
                            direction=c % 2,
                            segment=i % 100,
                            position=(i * 521) % 528_000,
                        ),
                    )
                )
            chunk[g] = rows
        chunks.append(chunk)
    return chunks


def _echo_worker(conn) -> None:
    """Worker half: decode each chunk, ack its row count, repeat."""
    while True:
        message = conn.recv()
        if message[0] == "stop":
            break
        _, watermark, payload, _ = message
        shards = decode_chunk(payload)
        rows = sum(len(group) for group in shards.values())
        conn.send(("ack", 0, watermark, {"rows": rows}, {}, 0))
    conn.close()


def _ship(window: int, chunks: list) -> float:
    """Stream every chunk through an echo worker; return inner seconds.

    The returned time covers only the credit-gated send/ack loop —
    process spawn is excluded so the gate measures transport, not fork
    cost.  Asserts the acked row count matches the stream.
    """
    total = GROUPS * ROWS * CHUNKS
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    worker = ctx.Process(target=_echo_worker, args=(child,), daemon=True)
    worker.start()
    child.close()
    outstanding = 0
    acked = 0
    start = time.perf_counter()
    for watermark, chunk in enumerate(chunks):
        while outstanding >= window:
            ack = parent.recv()
            acked += ack[3]["rows"]
            outstanding -= 1
        parent.send(("chunk", watermark, encode_chunk(chunk), None))
        outstanding += 1
    while outstanding:
        ack = parent.recv()
        acked += ack[3]["rows"]
        outstanding -= 1
    elapsed = time.perf_counter() - start
    parent.send(("stop",))
    worker.join(timeout=30)
    parent.close()
    assert acked == total, f"shipped {acked} rows, expected {total}"
    return elapsed


def test_transport_pipelined_codec(once):
    """Struct-codec payloads, window 8 (gated vs. shard_transport.json)."""
    once(_ship, WINDOW, make_chunks())

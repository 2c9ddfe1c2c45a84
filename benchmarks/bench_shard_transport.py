"""Shard transport plane: lockstep-pickle vs. pipelined-codec shipping.

The data-plane numbers of the pipelined transport work
(``repro.shard.codec`` + the credit-window coordinator loop): time to
encode, ship and ack a fixed stream of Linear Road chunks through a
``multiprocessing`` pipe to an echo worker, the way the coordinator
ships them against the plane it replaced:

``lockstep-pickle``
    The historical plane: raw per-group dict payloads (default pickling
    by the pipe) with a credit window of 1 — every chunk waits for its
    ack before the next send, serialising encode, pipe I/O and worker
    decode.

``pipelined-codec``
    The shipped plane: chunks packed by :func:`repro.shard.codec.encode_chunk`
    (columnar ``struct`` frames for the homogeneous report stream) with
    a credit window of 8, so encode and pipe I/O overlap the worker's
    decode of earlier chunks.

The echo worker acks every chunk with its decoded row count, and both
variants assert the full stream arrived intact, so a "speedup" can never
come from dropping work.  Chunk shape is the production rate: 4 shard
groups x 500 rows is ~10 s of the paper's ~200 reports/s workload.

Gated two ways by ``make bench-shard-transport``:

* absolute means vs. ``baselines/shard_transport.json`` so transport
  overhead cannot silently blow up;
* a relative gate (``test_transport_speedup_gate``) asserting the
  pipelined-codec plane ships the stream in <= 0.70x the lockstep
  per-chunk time (the >= 30 % acceptance floor, met even on the 1-core
  CI container where overlap is concurrency, not parallelism); on
  >= 4-CPU machines the floor rises to a true >= 1.5x speedup.
"""

import multiprocessing
import os
import time

import pytest

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
    """Synthesize the chunk stream once; both variants ship the same."""
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
        if isinstance(payload, (bytes, bytearray, memoryview)):
            shards = decode_chunk(payload)
        else:
            shards = payload
        rows = sum(len(group) for group in shards.values())
        conn.send(("ack", 0, watermark, {"rows": rows}, {}, 0))
    conn.close()


def _ship(mode: str, window: int, chunks: list) -> float:
    """Stream every chunk through an echo worker; return inner seconds.

    The returned time covers only the credit-gated send/ack loop —
    process spawn is excluded so the relative gate compares transport,
    not fork cost.  Asserts the acked row count matches the stream.
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
        if mode == "codec":
            payload = encode_chunk(chunk)
        else:
            payload = chunk
        parent.send(("chunk", watermark, payload, None))
        outstanding += 1
    while outstanding:
        ack = parent.recv()
        acked += ack[3]["rows"]
        outstanding -= 1
    elapsed = time.perf_counter() - start
    parent.send(("stop",))
    worker.join(timeout=30)
    parent.close()
    assert acked == total, (
        f"{mode} shipped {acked} rows, expected {total}"
    )
    return elapsed


#: The chunk stream, built once per pytest session.
_CHUNKS: list = []


def _stream() -> list:
    if not _CHUNKS:
        _CHUNKS.extend(make_chunks())
    return _CHUNKS


def test_transport_lockstep_pickle(once):
    """Raw-dict payloads, window 1 (gated vs. shard_transport.json)."""
    once(_ship, "raw", 1, _stream())


def test_transport_pipelined_codec(once):
    """Struct-codec payloads, window 8 (gated vs. shard_transport.json)."""
    once(_ship, "codec", WINDOW, _stream())


def test_transport_speedup_gate():
    """Pipelined-codec must beat lockstep-pickle by the acceptance floor.

    >= 30 % lower per-chunk transport time everywhere (ratio <= 0.70);
    on >= 4-CPU machines the bar is the full >= 1.5x speedup.  Trials
    are interleaved (raw, codec, raw, codec, ...) and each side takes
    its best, so slow machine-load stretches hit both variants alike.
    """
    raws, codecs = [], []
    for _ in range(4):
        raws.append(_ship("raw", 1, _stream()))
        codecs.append(_ship("codec", WINDOW, _stream()))
    lockstep = min(raws)
    pipelined = min(codecs)
    ratio = pipelined / lockstep
    floor = 1 / 1.5 if (os.cpu_count() or 1) >= 4 else 0.70
    assert ratio <= floor, (
        f"pipelined-codec per-chunk time is {ratio:.2f}x lockstep "
        f"(floor {floor:.2f}x: lockstep "
        f"{lockstep / CHUNKS * 1e3:.2f} ms/chunk, pipelined "
        f"{pipelined / CHUNKS * 1e3:.2f} ms/chunk)"
    )

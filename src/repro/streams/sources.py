"""Push sources: how external streams enter a continuous workflow.

:class:`TCPStreamSource` is a real push connection: a background thread
reads newline-delimited records from a TCP socket and appends them to the
pending-arrival queue, which the director drains at the pace its
execution model dictates (paper §2.2).  A recorded trace needs no class
of its own: a :class:`~repro.core.actors.SourceActor` takes its arrival
schedule directly.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Iterable, Optional

from ..core.actors import SourceActor
from ..core.timekeeper import US_PER_S
from ..observability import tracer as _obs
from .codecs import JSONLinesCodec


class TCPStreamSource(SourceActor):
    """Receives push updates over a TCP connection.

    A reader thread accepts newline-delimited records and stamps them with
    their receive time; the director pumps them into the workflow at the
    rate its execution model dictates.  The source is thread-safe: the
    reader appends under a lock while the engine drains.
    """

    unbounded = True

    #: Threading/network plumbing is structural (rebuilt by ``listen``)
    #: and unpicklable; the codec and clock are configuration.  Unlike a
    #: replay source, the pending queue *is* checkpointed here: live
    #: arrivals exist nowhere else, so dropping them would lose data.
    checkpoint_exclude = frozenset(
        {"_lock", "_thread", "_server", "_connection", "_stopping",
         "codec", "clock", "_sole_output_name"}
    )

    def __init__(
        self,
        name: str,
        host: str = "127.0.0.1",
        port: int = 0,
        codec=None,
        clock=None,
        output: str = "out",
    ):
        super().__init__(name, arrivals=[])
        self.add_output(output)
        self.codec = codec or JSONLinesCodec()
        self.clock = clock
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[socket.socket] = None
        self._connection: Optional[socket.socket] = None
        self._stopping = threading.Event()
        self.received = 0
        self.decode_errors = 0
        self._host = host
        self._port = port

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def listen(self) -> tuple[str, int]:
        """Bind and start accepting one publisher; returns (host, port)."""
        self._server = socket.create_server((self._host, self._port))
        self._server.settimeout(0.2)
        self._stopping.clear()
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"tcp-src-{self.name}", daemon=True
        )
        self._thread.start()
        return self._server.getsockname()[:2]

    def stop(self, join_timeout: float = 2.0) -> bool:
        """Shut the reader down even while a peer holds its connection open.

        Order matters: the stop flag is raised first, then *both* sockets
        (live connection and listener) are force-closed so a reader
        blocked in ``recv``/``accept`` on a stalling peer wakes with an
        ``OSError`` immediately instead of waiting out its poll timeout.
        The thread is then joined with *join_timeout*; returns ``True``
        when the reader thread has fully exited.
        """
        self._stopping.set()
        connection, self._connection = self._connection, None
        if connection is not None:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
            self._server = None
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=join_timeout)
            return not thread.is_alive()
        return True

    def close(self) -> None:
        """Backwards-compatible alias for :meth:`stop`."""
        self.stop()

    def _accept_loop(self) -> None:
        server = self._server
        assert server is not None
        while not self._stopping.is_set():
            try:
                connection, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self._connection = connection
            try:
                with connection:
                    self._read_lines(connection)
            except OSError:
                return
            finally:
                self._connection = None

    def _read_lines(self, connection: socket.socket) -> None:
        connection.settimeout(0.2)
        buffer = b""
        while not self._stopping.is_set():
            try:
                chunk = connection.recv(4096)
            except socket.timeout:
                continue
            except OSError:
                return
            if not chunk:
                return
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                self._ingest(line.decode("utf-8", errors="replace"))

    def _ingest(self, line: str) -> None:
        if not line.strip():
            return
        try:
            payload = self.codec.decode(line)
        except Exception:
            self.decode_errors += 1
            return
        timestamp = self._now_us()
        with self._lock:
            self._pending.append((timestamp, payload))
            self.received += 1
            received = self.received
        if _obs.ENABLED:
            # RecordingTracer appends to a deque, which is safe from the
            # reader thread.
            _obs._TRACER.counter("source.received", timestamp, received, self.name)

    def _now_us(self) -> int:
        if self.clock is not None:
            return self.clock.now_us
        import time

        return int(time.monotonic() * US_PER_S)

    # ------------------------------------------------------------------
    # SourceActor overrides (thread-safe over the growing list)
    # ------------------------------------------------------------------
    def next_arrival_time(self) -> Optional[int]:
        with self._lock:
            if self._cursor >= len(self._pending):
                return None
            return self._pending[self._cursor][0]

    def pending_arrivals(self, now: int) -> int:
        with self._lock:
            count = 0
            index = self._cursor
            while (
                index < len(self._pending)
                and self._pending[index][0] <= now
            ):
                count += 1
                index += 1
            return count

    def pump(self, ctx) -> int:
        emitted = 0
        limit = self.batch_limit
        while True:
            with self._lock:
                if self._cursor >= len(self._pending):
                    break
                timestamp, value = self._pending[self._cursor]
                if timestamp > ctx.now:
                    break
                self._cursor += 1
            self.emit_arrival(ctx, timestamp, value)
            emitted += 1
            if limit is not None and emitted >= limit:
                break
        if emitted:
            if _obs.ENABLED:
                _obs._TRACER.instant(
                    "source.pump", ctx.now, self.name, emitted=emitted
                )
        return emitted

    # ------------------------------------------------------------------
    # Checkpointable protocol (lock-guarded over the live queue)
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot the live arrival queue + cursor under the reader lock.

        The generic :meth:`~repro.core.actors.Actor.state_dump` applies,
        but the reader thread may be appending concurrently — the lock
        freezes one consistent ``(pending, cursor)`` pair, and the queue
        is copied (not referenced) because the reader keeps mutating it
        after the dump returns.
        """
        with self._lock:
            state = super().state_dump()
            state["plain"]["_pending"] = list(self._pending)
            return state

    def state_restore(self, state: dict) -> None:
        """Re-apply a dump under the lock (reader may already be live)."""
        with self._lock:
            super().state_restore(state)


def publish_lines(
    host: str, port: int, payloads: Iterable[Any], codec=None
) -> int:
    """Publish *payloads* to a listening :class:`TCPStreamSource`."""
    codec = codec or JSONLinesCodec()
    sent = 0
    with socket.create_connection((host, port), timeout=2.0) as connection:
        for payload in payloads:
            connection.sendall(
                (codec.encode(payload) + "\n").encode("utf-8")
            )
            sent += 1
    return sent

"""Byte-stream links the serve mode runs over.

Two interchangeable duplex links carry wire payloads (the frames of
:mod:`repro.network.wire`):

* :class:`StreamLink` — a real asyncio TCP stream (reader/writer pair);
* :class:`QueueLink` — an in-process asyncio queue pair with optional
  per-frame wall-clock delay injection, used by tests and the loopback
  equivalence pins (no sockets, no OS jitter).

Both expose the same surface: ``await read_frame()`` returning one wire
payload (or ``None`` once the peer closed), ``write_frame(payload)``,
``await drain()`` and ``close()``.  Clients read through them; the
server's TCP side is an :class:`asyncio.Protocol` instead
(:mod:`repro.serve.server`), which handles frames in its receive
callback.
"""

from __future__ import annotations

import asyncio
from typing import Callable, List, Optional, Tuple

from repro.network.wire import MAX_FRAME, WireError

__all__ = ["QueueLink", "StreamLink", "queue_pipe"]

_LEN = 4


class StreamLink:
    """Length-prefixed framing over an asyncio TCP stream."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer: str = "?",
    ):
        self.reader = reader
        self.writer = writer
        self.peer = peer

    async def read_frame(self) -> Optional[bytes]:
        """Next wire payload; ``None`` on a clean or broken EOF.

        Raises :class:`~repro.network.wire.WireError` on an
        out-of-bounds length prefix (corrupt or hostile stream).
        """
        try:
            header = await self.reader.readexactly(_LEN)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        length = int.from_bytes(header, "big")
        if length == 0 or length > MAX_FRAME:
            raise WireError(f"frame length {length} out of bounds")
        try:
            return await self.reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None

    def write_frame(self, payload: bytes) -> None:
        self.writer.write(len(payload).to_bytes(_LEN, "big") + payload)

    async def drain(self) -> None:
        try:
            await self.writer.drain()
        except ConnectionError:
            pass

    def close(self) -> None:
        try:
            self.writer.close()
        except RuntimeError:  # loop already gone during shutdown
            pass

    async def wait_closed(self) -> None:
        try:
            await self.writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


class QueueLink:
    """In-process duplex link over a pair of asyncio queues.

    ``delay`` (seconds, wall clock) is applied per outgoing frame via
    ``loop.call_later`` — the fault-injection hook the WC-RTD estimator
    test uses to create a known true delay bound without sockets.
    """

    def __init__(
        self,
        rx: "asyncio.Queue",
        tx: "asyncio.Queue",
        delay: Optional[Callable[[], float]] = None,
        peer: str = "queue",
    ):
        self.rx = rx
        self.tx = tx
        self.delay = delay
        self.peer = peer
        self._closed = False

    async def read_frame(self) -> Optional[bytes]:
        if self._closed:
            return None
        payload = await self.rx.get()
        if payload is None:
            self._closed = True
        return payload

    def write_frame(self, payload: bytes) -> None:
        if self._closed:
            return
        d = self.delay() if self.delay is not None else 0.0
        if d > 0.0:
            asyncio.get_running_loop().call_later(d, self.tx.put_nowait, payload)
        else:
            self.tx.put_nowait(payload)

    async def drain(self) -> None:
        return None

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.tx.put_nowait(None)

    async def wait_closed(self) -> None:
        return None


def queue_pipe(
    client_to_server_delay: Optional[Callable[[], float]] = None,
    server_to_client_delay: Optional[Callable[[], float]] = None,
) -> Tuple[QueueLink, QueueLink]:
    """A connected ``(client_link, server_link)`` pair of queue links."""
    a: "asyncio.Queue" = asyncio.Queue()
    b: "asyncio.Queue" = asyncio.Queue()
    client = QueueLink(rx=b, tx=a, delay=client_to_server_delay, peer="server")
    server = QueueLink(rx=a, tx=b, delay=server_to_client_delay, peer="client")
    return client, server

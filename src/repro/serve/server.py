"""The IM-as-a-service server.

:class:`ImServer` hosts the *unchanged* IM core — ``make_im`` builds
the same policy object (receive loop, capacity-1 compute worker,
:class:`~repro.protocol.SequenceGuard`,
:class:`~repro.protocol.TimeSyncResponder`) that every simulation
runs — on a DES environment paced against wall time by a
:class:`~repro.serve.realtime.RealtimeBridge`, behind a
:class:`~repro.serve.transport.SocketTransport`.  Clients connect over
TCP (or an in-process :func:`~repro.serve.link.queue_pipe` for tests)
speaking the :mod:`repro.network.wire` framing.

Host work follows the frames, not task hops.  Each TCP connection is
an :class:`asyncio.Protocol` whose ``data_received`` splits the bytes
into frames and handles every complete one in that callback: count,
decode, ack, deliver to the IM and :meth:`RealtimeBridge.kick
<repro.serve.realtime.RealtimeBridge.kick>` the kernel up to wall-now,
so anything the IM answers at once leaves before the callback returns.
The queue link of :meth:`ImServer.connect_local` feeds the same
per-frame handler.

Serve-mode mechanics on top of the stock core:

* **Link acks.**  Every inbound message is acknowledged, and clients
  ack every reply; the server's measured reply->ack round trips feed
  the :class:`~repro.serve.estimator.RtdEstimator`, whose bound (plus
  the worst observed compute service time) *becomes* the operating
  ``IMConfig.wc_rtd`` — the paper's measured-WC-RTD loop closed over a
  real network.
* **Backpressure.**  The IM work queue is bounded: past
  ``max_queue`` pending requests, new crossing/AIM requests are shed
  with an immediate :class:`~repro.network.messages.AimReject` and an
  ``overload`` entry in ``NetworkStats.by_reason`` — overload degrades
  into rejects-with-backoff, never unbounded buffering.
* **Hardening.**  A malformed frame counts ``serve.wire_errors`` and
  (for garbage payloads) skips the frame or (for a corrupt length
  prefix) drops the connection — the serve loop never dies to a
  :class:`~repro.network.wire.WireError`.  A client that stops reading
  its replies is not read either: once its write buffer passes the
  transport's high-water mark, ``pause_writing`` pauses reading that
  connection until the buffer drains, so no client can make the server
  buffer without bound.
* **Scrape endpoint.**  ``GET /metrics`` on the optional HTTP port
  serves the live :mod:`repro.obs.metrics` snapshot in Prometheus
  text format.  Counts that already live elsewhere (kernel events,
  ``NetworkStats``, ``by_reason["overload"]``) are not mirrored: the
  gauge sampler advances their counters, and so does
  :meth:`ImServer.snapshot` right before every scrape and export.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Set

from repro.des import Environment
from repro.geometry.layout import IntersectionGeometry
from repro.network.messages import Ack, AimReject, AimRequest, CrossingRequest
from repro.network.wire import (
    FrameAssembler,
    WireError,
    decode_message,
    encode_message,
)
from repro.obs.metrics import MetricsRegistry, RTD_BUCKETS
from repro.serve.estimator import RtdEstimator
from repro.serve.link import QueueLink, queue_pipe
from repro.serve.realtime import RealtimeBridge
from repro.serve.transport import SocketTransport

__all__ = ["ImServer", "ServeConfig"]

#: Outstanding un-acked replies tracked for RTD sampling (older
#: entries are evicted; an ack for an evicted seq is simply ignored).
_RTD_TRACK_CAP = 4096


@dataclass
class ServeConfig:
    """Knobs of one serve-mode IM instance."""

    policy: str = "crossroads"
    host: str = "127.0.0.1"
    #: TCP port (0 -> ephemeral; the bound port lands on ``ImServer.port``).
    port: int = 0
    #: Optional HTTP scrape port (None -> no HTTP endpoint).
    http_port: Optional[int] = None
    #: Simulated seconds per wall second (10 -> the IM core runs 10x
    #: faster than reality; compresses load tests).
    time_scale: float = 1.0
    #: Work-queue bound; crossing/AIM requests beyond it are shed with
    #: an ``AimReject`` (reject-with-backoff backpressure).
    max_queue: int = 64
    #: Gauge-sampling period, simulated seconds.
    sample_dt: float = 0.5
    #: Quiet-reservation watchdog period, simulated seconds.
    watchdog_dt: float = 1.0
    #: Metrics registry time-bucket width, simulated seconds.
    bucket_dt: float = 1.0
    #: RTD estimator parameters (see :class:`RtdEstimator`).
    estimator_alpha: float = 0.2
    estimator_window: int = 256
    safety_factor: float = 2.0
    #: Lower bound on the applied WC-RTD, simulated seconds.
    rtd_floor: float = 0.0
    #: Ack samples required before the estimate replaces the static
    #: ``IMConfig.wc_rtd``.
    min_samples: int = 5
    #: When False the estimator only reports (gauges/stats); the IM
    #: keeps its static configured WC-RTD.
    apply_estimate: bool = True
    #: Wall seconds granted to in-flight requests during shutdown.
    drain_grace: float = 2.0

    def __post_init__(self):
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.drain_grace < 0:
            raise ValueError("drain_grace must be non-negative")


class ImServer:
    """Asyncio host for one intersection manager."""

    def __init__(self, config: Optional[ServeConfig] = None, metrics=None):
        self.config = config if config is not None else ServeConfig()
        self.metrics = (
            metrics if metrics is not None
            else MetricsRegistry(bucket_dt=self.config.bucket_dt)
        )
        self.env = Environment()
        self.transport = SocketTransport(self.env)
        self.bridge = RealtimeBridge(
            self.env, time_scale=self.config.time_scale
        )
        self.estimator = RtdEstimator(
            alpha=self.config.estimator_alpha,
            window=self.config.estimator_window,
            safety_factor=self.config.safety_factor,
            floor=self.config.rtd_floor,
        )
        # The unchanged IM core, attached to the socket fabric exactly
        # as it attaches to the in-process channel.
        from repro.core.policy import make_im

        self.im = make_im(
            self.config.policy,
            self.env,
            self.transport,
            IntersectionGeometry(),
        )
        self._h_rtd = self.metrics.histogram(
            "serve.rtd_seconds", buckets=RTD_BUCKETS
        )
        self._g_wc_rtd = self.metrics.gauge("serve.wc_rtd_estimate")
        self._g_ewma = self.metrics.gauge("serve.rtd_ewma")
        self._g_backlog = self.metrics.gauge("serve.backlog")
        self._g_connections = self.metrics.gauge("serve.connections")
        self._c_wire_errors = self.metrics.counter("serve.wire_errors")
        self._c_frames = self.metrics.counter("serve.frames")
        #: reply seq -> wall send time, awaiting the client's ack.
        self._reply_sent_at: "OrderedDict[int, float]" = OrderedDict()
        self._links: Set[object] = set()
        self._closing = False
        self._shutdown = None  # asyncio.Event, created on start()
        self._bridge_task: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._http: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None
        self.http_port: Optional[int] = None
        # Registers the sampled counters, so even a scrape before the
        # first sample lists every series.
        self._sample_counts(0.0)
        self.env.process(self._sampler())
        self.env.process(self._watchdog())

    # -- lifecycle -----------------------------------------------------------
    async def start(self, listen: bool = True) -> None:
        """Start the bridge (and the TCP/HTTP listeners when asked)."""
        self.bridge.start()
        self._shutdown = asyncio.Event()
        self._bridge_task = asyncio.get_running_loop().create_task(
            self.bridge.run()
        )
        if listen:
            self._server = await asyncio.get_running_loop().create_server(
                lambda: _Connection(self), self.config.host, self.config.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        if self.config.http_port is not None:
            self._http = await asyncio.start_server(
                self._handle_http, self.config.host, self.config.http_port
            )
            self.http_port = self._http.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Signal-handler safe: ask :meth:`serve_forever` to return."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def serve_forever(self) -> None:
        """Block until :meth:`request_shutdown`, then drain and stop."""
        assert self._shutdown is not None, "call start() first"
        await self._shutdown.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight requests, stop the bridge."""
        self._closing = True
        for listener in (self._server, self._http):
            if listener is not None:
                listener.close()
        # Drain: the bridge keeps serving already-admitted work until
        # the IM queue empties or the grace period runs out.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_grace
        while (
            (len(self.im._work_queue) or self.im._pending)
            and loop.time() < deadline
        ):
            self.bridge.kick()
            await asyncio.sleep(0.02)
        await asyncio.sleep(0)  # let reply frames flush
        self.bridge.stop()
        if self._bridge_task is not None:
            try:
                await asyncio.wait_for(self._bridge_task, timeout=1.0)
            except asyncio.TimeoutError:  # pragma: no cover
                self._bridge_task.cancel()
        for link in list(self._links):
            link.close()
        for listener in (self._server, self._http):
            if listener is not None:
                try:
                    await listener.wait_closed()
                except (ConnectionError, RuntimeError):  # pragma: no cover
                    pass

    # -- estimator -----------------------------------------------------------
    def wc_rtd_estimate(self) -> float:
        """The operating WC-RTD: measured link bound + worst observed
        compute service time (simulated seconds)."""
        return self.estimator.wc_rtd() + self.im.stats.worst_service_time

    def snapshot(self) -> dict:
        """The registry snapshot, with every sampled count brought up
        to date first (the scrape and ``--metrics-out`` payload)."""
        self._sample_counts(self.env.now)
        return self.metrics.snapshot()

    def _sample_counts(self, now: float) -> None:
        registry = self.metrics
        registry.counter("des.events").advance_to(self.env.events_processed, now)
        stats = self.transport.stats
        stats.advance(registry, now)
        registry.counter("serve.overload").advance_to(
            stats.by_reason["overload"], now
        )

    # -- DES-side processes --------------------------------------------------
    def _sampler(self):
        while True:
            yield self.env.timeout(self.config.sample_dt)
            now = self.env.now
            self._sample_counts(now)
            self._g_backlog.set(float(len(self.im._work_queue)), now)
            self._g_connections.set(float(self.transport.routes()), now)
            self._g_ewma.set(self.estimator.ewma, now)
            estimate = self.wc_rtd_estimate()
            self._g_wc_rtd.set(estimate, now)
            if (
                self.config.apply_estimate
                and self.estimator.count >= self.config.min_samples
            ):
                self.im.config.wc_rtd = max(estimate, 1e-3)

    def _watchdog(self):
        while True:
            yield self.env.timeout(self.config.watchdog_dt)
            self.im.invalidate_quiet(self.env.now)

    # -- connection handling -------------------------------------------------
    def connect_local(
        self,
        to_server_delay=None,
        to_client_delay=None,
    ) -> QueueLink:
        """In-process connection: returns the client's end of a queue
        pipe whose server end is being served (tests / fault injection)."""
        client_link, server_link = queue_pipe(
            client_to_server_delay=to_server_delay,
            server_to_client_delay=to_client_delay,
        )
        connection = _Connection(self)
        connection.attach(server_link.write_frame, server_link.close)
        asyncio.ensure_future(self._read_queue(server_link, connection))
        return client_link

    async def _read_queue(self, link: QueueLink, connection) -> None:
        """Feed a queue link's frames to its connection's frame handler."""
        try:
            while True:
                payload = await link.read_frame()
                if payload is None:
                    break
                connection.frame(payload)
        finally:
            connection.detach()
            link.close()

    def _note_reply_sent(self, seq: int) -> None:
        self._reply_sent_at[seq] = self.bridge.wall()
        while len(self._reply_sent_at) > _RTD_TRACK_CAP:
            self._reply_sent_at.popitem(last=False)

    def _handle_message(self, message, addresses, route_send) -> None:
        self.bridge.sync()
        now = self.env.now
        if isinstance(message, Ack):
            sent = self._reply_sent_at.pop(message.acked_seq, None)
            if sent is not None:
                rtd = (self.bridge.wall() - sent) * self.config.time_scale
                self.estimator.observe(rtd)
                self._h_rtd.observe(rtd, now)
            return
        if message.sender not in addresses:
            self.transport.register_route(message.sender, route_send)
            addresses.add(message.sender)
        ack = Ack(
            sender=self.im.config.address,
            receiver=message.sender,
            acked_seq=message.seq,
        )
        ack.corr = message.corr
        self.transport.transmit(ack)
        if (
            isinstance(message, (CrossingRequest, AimRequest))
            and len(self.im._work_queue) >= self.config.max_queue
        ):
            # Backpressure: shed, account, and tell the sender to back
            # off (AIM vehicles handle the reject natively; everyone
            # else treats it as "try again later").
            self.transport.drop(message, "overload")
            reject = AimReject(
                sender=self.im.config.address,
                receiver=message.sender,
                in_reply_to=message.seq,
            )
            reject.corr = message.corr
            self.transport.transmit(reject)
            return
        self.transport.deliver_local(message)
        self.bridge.kick()

    # -- HTTP scrape endpoint ------------------------------------------------
    async def _handle_http(self, reader, writer) -> None:
        from repro.obs.prom import to_prometheus

        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=5.0
            )
            while True:  # drain headers
                header = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.split()
            path = parts[1].decode("latin-1") if len(parts) >= 2 else ""
            if path == "/metrics":
                body = to_prometheus(self.snapshot())
                status, ctype = "200 OK", "text/plain; version=0.0.4"
            elif path in ("/healthz", "/health"):
                body, status, ctype = "ok\n", "200 OK", "text/plain"
            else:
                body, status, ctype = "not found\n", "404 Not Found", "text/plain"
            payload = body.encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + payload
            )
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover
                pass


class _Connection(asyncio.Protocol):
    """The server side of one client link.

    Over TCP it is the listener's protocol: :meth:`data_received`
    splits the bytes with a :class:`~repro.network.wire.FrameAssembler`
    and handles every complete frame inside that callback.  The queue
    link of :meth:`ImServer.connect_local` feeds :meth:`frame` from a
    reader task.  Either way a frame is counted, decoded and handed to
    :meth:`ImServer._handle_message`, and replies leave through
    :meth:`send`, the route of every sender address the link carries.
    """

    def __init__(self, server: ImServer):
        self.server = server
        #: Sender addresses routed over this link.
        self.addresses: Set[str] = set()
        self._write_frame: Optional[Callable[[bytes], None]] = None
        self.close: Optional[Callable[[], None]] = None
        self._transport: Optional[asyncio.Transport] = None
        self._assembler = FrameAssembler()

    def attach(self, write_frame: Callable[[bytes], None],
               close: Callable[[], None]) -> None:
        """Bind the link's payload writer and closer; track the link."""
        self._write_frame = write_frame
        self.close = close
        self.server._links.add(self)

    def detach(self) -> None:
        """The link is gone: drop its routes and stop tracking it."""
        for address in self.addresses:
            self.server.transport.unregister_route(address)
        self.addresses.clear()
        self.server._links.discard(self)

    def send(self, message) -> None:
        """Route one outbound message over this link."""
        server = self.server
        if not isinstance(message, Ack):
            server._note_reply_sent(message.seq)
        try:
            self._write_frame(encode_message(message))
        except WireError:  # pragma: no cover - outbound is trusted
            server._c_wire_errors.inc(1.0, server.env.now)

    def frame(self, payload: bytes) -> None:
        """Count, decode and handle one inbound wire payload."""
        server = self.server
        if server._closing:
            # Shutting down: no new work; the link goes.
            self.close()
            return
        server._c_frames.inc(1.0, server.env.now)
        try:
            message = decode_message(payload)
        except WireError:
            # Garbage payload: count it, keep the connection.
            server._c_wire_errors.inc(1.0, server.env.now)
            return
        server._handle_message(message, self.addresses, self.send)

    # -- asyncio.Protocol (TCP) ----------------------------------------------
    def connection_made(self, transport) -> None:
        self._transport = transport

        def write_frame(payload: bytes) -> None:
            transport.write(len(payload).to_bytes(4, "big") + payload)

        self.attach(write_frame, transport.close)

    def data_received(self, data: bytes) -> None:
        try:
            for payload in self._assembler.split(data):
                self.frame(payload)
        except WireError:
            # Corrupt length prefix: the stream is unframeable.
            self.server._c_wire_errors.inc(1.0, self.server.env.now)
            self._transport.close()

    def pause_writing(self) -> None:
        # The peer is not reading its replies: stop reading its
        # requests until the write buffer drains, so a client that
        # does not read cannot make the server buffer without bound.
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()

    def connection_lost(self, exc) -> None:
        self.detach()

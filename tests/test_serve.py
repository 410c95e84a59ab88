"""Serve-mode subsystem tests: SocketTransport accounting, detach
semantics (both transports), in-process server transactions, overload
shedding, wire-error hardening and the HTTP ``/metrics`` endpoint.

Everything here runs on the in-process queue pipe or localhost TCP —
no external network, sub-second wall time per test (the DES behind the
bridge still does all the timekeeping, scaled up).
"""

import asyncio
import socket

import pytest

from repro.des import Environment
from repro.geometry.layout import Approach, Movement, Turn
from repro.network.channel import Channel
from repro.network.messages import (
    Ack,
    AimReject,
    CrossingRequest,
    CrossroadsCommand,
    ExitNotification,
    SyncRequest,
)
from repro.network.wire import (
    MAX_FRAME,
    FrameAssembler,
    encode_frame,
    encode_message,
)
from repro.obs.prom import parse_prometheus, to_prometheus
from repro.serve import (
    ImServer,
    RealtimeBridge,
    ServeClient,
    ServeConfig,
    SocketTransport,
)
from repro.vehicle.spec import VehicleInfo, VehicleSpec


def _request(sender, index=0, tt=1.0):
    return CrossingRequest(
        sender=sender,
        receiver="IM",
        tt=tt,
        dt=6.0,
        vc=2.0,
        vehicle_info=VehicleInfo(
            vehicle_id=index,
            spec=VehicleSpec(),
            movement=Movement(
                entry=(
                    Approach.NORTH, Approach.EAST,
                    Approach.SOUTH, Approach.WEST,
                )[index % 4],
                turn=Turn.STRAIGHT,
            ),
        ),
    )


class TestSocketTransport:
    def test_local_delivery_and_accounting(self):
        env = Environment()
        transport = SocketTransport(env)
        radio = transport.attach("IM")
        message = Ack(sender="V0", receiver="IM", acked_seq=1)
        transport.transmit(message)
        assert radio.inbox.items == [message]
        assert transport.stats.sent == 1
        assert transport.stats.delivered == 1
        assert transport.stats.by_type.get("Ack") == 1

    def test_duplicate_dropped_by_radio(self):
        env = Environment()
        transport = SocketTransport(env)
        transport.attach("IM")
        message = Ack(sender="V0", receiver="IM", acked_seq=1)
        transport.transmit(message)
        transport.transmit(message)  # same seq: radio dedup
        assert transport.stats.delivered == 1
        assert transport.stats.dupes_by_endpoint.get("IM") == 1

    def test_detach_never_raises_and_counts_no_route(self):
        env = Environment()
        transport = SocketTransport(env)
        transport.attach("IM")
        transport.detach("IM")
        transport.detach("IM")  # idempotent
        transport.transmit(Ack(sender="V0", receiver="IM", acked_seq=1))
        assert transport.stats.lost == 1
        assert transport.stats.by_reason.get("no_route") == 1

    def test_route_carries_non_local_traffic(self):
        env = Environment()
        transport = SocketTransport(env)
        shipped = []
        transport.register_route("V7", shipped.append)
        message = Ack(sender="IM", receiver="V7", acked_seq=3)
        transport.transmit(message)
        assert shipped == [message]
        assert transport.stats.delivered == 1
        transport.unregister_route("V7")
        transport.transmit(Ack(sender="IM", receiver="V7", acked_seq=4))
        assert transport.stats.by_reason.get("no_route") == 1
        assert transport.routes() == 0

    def test_deliver_local_and_drop_accounting(self):
        """The server's transport (IM attached at ``IM``) counts each
        message once in ``NetworkStats``; the server's snapshot reads
        its ``net.*`` and ``serve.overload`` counters from there."""
        server = ImServer(ServeConfig())
        transport = server.transport
        transport.deliver_local(_request("V0"))
        transport.deliver_local(Ack(sender="x", receiver="gone", acked_seq=1))
        transport.drop(_request("V1", index=1), "overload")
        assert transport.stats.sent == 3
        assert transport.stats.delivered == 1
        assert transport.stats.by_reason == {"no_route": 1, "overload": 1}
        totals = {
            (entry["name"], entry["labels"].get("reason")): entry["total"]
            for entry in server.snapshot()["series"]
            if entry["type"] == "counter"
        }
        assert totals[("net.sent", None)] == 3
        assert totals[("net.delivered", None)] == 1
        assert totals[("net.dropped", "no_route")] == 1
        assert totals[("net.dropped", "overload")] == 1
        assert totals[("serve.overload", None)] == 1

    def test_on_deliver_hook_sees_delivered_only(self):
        env = Environment()
        seen = []
        transport = SocketTransport(env, on_deliver=seen.append)
        transport.attach("IM")
        message = Ack(sender="V0", receiver="IM", acked_seq=1)
        transport.transmit(message)
        transport.transmit(message)  # duplicate: hook must not fire
        transport.transmit(Ack(sender="V0", receiver="gone", acked_seq=2))
        assert seen == [message]


class TestChannelDetach:
    """Satellite: ``Transport.detach`` semantics on the stock channel —
    in-flight traffic to a detached endpoint is dropped and attributed,
    never raised into the delivery process."""

    def test_in_flight_message_to_detached_endpoint_dropped(self):
        env = Environment()
        channel = Channel(env)
        channel.attach("IM")
        channel.attach("V0")
        channel.transmit(Ack(sender="V0", receiver="IM", acked_seq=1))
        channel.detach("IM")  # mid-flight: transmit scheduled, not delivered
        env.run(until=1.0)  # must not raise
        assert channel.stats.delivered == 0
        assert channel.stats.by_reason.get("no_route") == 1

    def test_transmit_to_never_attached_endpoint_dropped(self):
        env = Environment()
        channel = Channel(env)
        channel.attach("V0")
        channel.transmit(Ack(sender="V0", receiver="nobody", acked_seq=1))
        env.run(until=1.0)
        assert channel.stats.by_reason.get("no_route") == 1


def _run(coroutine):
    return asyncio.run(coroutine)


async def _with_server(body, **config_kwargs):
    """Run ``body(server, client)`` against an in-process server."""
    config_kwargs.setdefault("policy", "crossroads")
    config_kwargs.setdefault("time_scale", 20.0)
    server = ImServer(ServeConfig(**config_kwargs))
    await server.start(listen=False)
    link = server.connect_local()
    client = ServeClient(
        link, address="V0", time_scale=server.config.time_scale
    )
    await client.start()
    try:
        return await body(server, client)
    finally:
        await client.close()
        await server.shutdown()


class TestInProcessServe:
    def test_crossing_transaction_granted(self):
        async def body(server, client):
            await client.sync_clock()
            reply = await client.request(
                _request("V0", tt=client.local_time() + 1.0), timeout=5.0
            )
            assert isinstance(reply, CrossroadsCommand)
            assert reply.sender == "IM" and reply.receiver == "V0"
            await client.send(
                ExitNotification(sender="V0", receiver="IM")
            )
            await asyncio.sleep(0.05)
            assert server.im.stats.accepts == 1
            assert server.im.stats.rejects == 0
            # The link acks fed the estimator on both request and exit.
            assert server.estimator.count >= 1
            assert server.wc_rtd_estimate() > 0.0

        _run(_with_server(body))

    def test_wc_rtd_estimate_applied_to_im_config(self):
        async def body(server, client):
            await client.sync_clock()
            for i in range(6):  # min_samples acks before the sampler tick
                await client.request(
                    _request("V0", index=i, tt=client.local_time() + 1.0),
                    timeout=5.0,
                )
                await client.send(
                    ExitNotification(sender="V0", receiver="IM")
                )
            await asyncio.sleep(0.2)  # >= one sample_dt at time_scale
            assert server.estimator.count >= server.config.min_samples
            assert server.im.config.wc_rtd == pytest.approx(
                max(server.wc_rtd_estimate(), 1e-3)
            )
            names = {
                entry["name"]
                for entry in server.metrics.snapshot()["series"]
            }
            assert "serve.wc_rtd_estimate" in names
            assert "serve.rtd_seconds" in names

        _run(_with_server(body, sample_dt=0.5, min_samples=5))

    def test_overload_sheds_with_reject_and_accounting(self):
        async def body(server, client):
            await client.sync_clock()
            pending = [
                asyncio.ensure_future(client.request(
                    _request(f"V{i}", index=i,
                             tt=client.local_time() + 1.0),
                    timeout=5.0,
                ))
                for i in range(30)
            ]
            replies = await asyncio.gather(*pending)
            rejects = [r for r in replies if isinstance(r, AimReject)]
            grants = [r for r in replies if isinstance(r, CrossroadsCommand)]
            assert len(rejects) > 0, "queue bound 2 must shed a 30-burst"
            assert len(grants) > 0
            assert all(r is not None for r in replies)
            stats = server.transport.stats
            assert stats.by_reason.get("overload") == len(rejects)
            assert server.im.stats.peak_queue <= server.config.max_queue
            overload = [
                entry for entry in server.snapshot()["series"]
                if entry["name"] == "serve.overload"
            ]
            assert overload and overload[0]["total"] == len(rejects)
            # Server must still serve after the burst.
            reply = await client.request(
                _request("V99", index=99, tt=client.local_time() + 5.0),
                timeout=5.0,
            )
            assert reply is not None

        _run(_with_server(body, max_queue=2))

    def test_garbage_frames_counted_not_fatal(self):
        async def body(server, client):
            await client.sync_clock()
            # Inject frames whose payloads are not valid wire messages:
            # the server must count them and keep the connection alive.
            # The last is a request whose buffer is NaN.
            nan_request = encode_message(_request("V9", index=9)).replace(
                b'"buffer":0.078', b'"buffer":NaN'
            )
            assert b"NaN" in nan_request
            for junk in (b"", b"\x00", b"\xc5\x01 not json", b"\xff" * 32,
                         nan_request):
                client.link.write_frame(junk)
            await client.link.drain()
            await asyncio.sleep(0.05)
            reply = await client.request(
                _request("V0", tt=client.local_time() + 1.0), timeout=5.0
            )
            assert isinstance(reply, CrossroadsCommand)
            errors = [
                entry for entry in server.metrics.snapshot()["series"]
                if entry["name"] == "serve.wire_errors"
            ]
            assert errors and errors[0]["total"] == 5.0

        _run(_with_server(body))

    def test_unknown_message_types_are_dropped_silently(self):
        async def body(server, client):
            # A SyncRequest for a bogus receiver: routed nowhere.
            await client.send(
                SyncRequest(sender="V0", receiver="nobody", t0=0.0)
            )
            await asyncio.sleep(0.05)
            assert server.transport.stats.by_reason.get("no_route", 0) >= 1

        _run(_with_server(body))


class TestTcpServe:
    def test_tcp_transaction_and_http_metrics(self):
        async def body():
            server = ImServer(ServeConfig(
                policy="crossroads", port=0, http_port=0, time_scale=20.0,
            ))
            await server.start()
            try:
                client = await ServeClient.connect(
                    "127.0.0.1", server.port,
                    address="V0", time_scale=20.0,
                )
                await client.sync_clock()
                reply = await client.request(
                    _request("V0", tt=client.local_time() + 1.0),
                    timeout=5.0,
                )
                assert isinstance(reply, CrossroadsCommand)
                await client.close()

                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.http_port
                )
                writer.write(b"GET /metrics HTTP/1.1\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                head, _, text = raw.decode().partition("\r\n\r\n")
                assert "200" in head.splitlines()[0]
                parsed = parse_prometheus(text)
                names = {name for name, _labels, _value in parsed}
                assert any(n.endswith("serve_rtd_seconds_count")
                           for n in names)
                assert any("serve_wc_rtd_estimate" in n for n in names)
                assert any("net_delivered" in n for n in names)
                # Sampled counters are brought up to date per scrape.
                scraped = {
                    name: value for name, labels, value in parsed if not labels
                }
                stats = server.transport.stats
                assert scraped["repro_net_sent_total"] == stats.sent
                assert scraped["repro_net_delivered_total"] == stats.delivered
                assert scraped["repro_serve_overload_total"] == 0
            finally:
                await server.shutdown()

        _run(body())

    def test_http_health_and_404(self):
        async def body():
            server = ImServer(ServeConfig(port=0, http_port=0))
            await server.start()
            try:
                async def fetch(path):
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.http_port
                    )
                    writer.write(
                        f"GET {path} HTTP/1.1\r\n\r\n".encode()
                    )
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    return raw.decode().splitlines()[0]

                assert "200" in await fetch("/healthz")
                assert "404" in await fetch("/nope")
            finally:
                await server.shutdown()

        _run(body())


def _total(server, name):
    """Running total of one unlabelled counter in the server snapshot."""
    for entry in server.snapshot()["series"]:
        if entry["name"] == name and not entry["labels"]:
            return entry["total"]
    return 0.0


async def _tcp_server(**config_kwargs):
    config_kwargs.setdefault("time_scale", 20.0)
    server = ImServer(ServeConfig(policy="crossroads", port=0,
                                  **config_kwargs))
    await server.start()
    return server


async def _tcp_client(server):
    client = await ServeClient.connect(
        "127.0.0.1", server.port, address="V0", time_scale=20.0
    )
    await client.sync_clock()
    return client


async def _granted(client, sender="V0", index=0):
    reply = await client.request(
        _request(sender, index=index, tt=client.local_time() + 1.0),
        timeout=5.0,
    )
    return isinstance(reply, CrossroadsCommand)


class TestTcpHardening:
    """The TCP listener handles frames inside its protocol callback;
    these pin its hardening: garbage is counted, a corrupt length
    prefix costs only its own connection, and a client that does not
    read is not read either."""

    def test_garbage_payloads_counted_connection_kept(self):
        async def body():
            server = await _tcp_server()
            try:
                client = await _tcp_client(server)
                nan_request = encode_message(
                    _request("V9", index=9)
                ).replace(b'"buffer":0.078', b'"buffer":NaN')
                for junk in (b"\x00", b"\xc5\x01 not json", b"\xff" * 32,
                             nan_request):
                    client.link.write_frame(junk)
                await client.link.drain()
                assert await _granted(client)
                assert _total(server, "serve.wire_errors") == 4.0
                await client.close()
            finally:
                await server.shutdown()

        _run(body())

    @pytest.mark.parametrize("length", [0, MAX_FRAME + 1],
                             ids=["zero", "above-max-frame"])
    def test_corrupt_length_prefix_closes_only_that_connection(self, length):
        async def body():
            server = await _tcp_server()
            try:
                survivor = await _tcp_client(server)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(length.to_bytes(4, "big") + b"xxxx")
                # The server closes the corrupt stream: EOF, no reply.
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                writer.close()
                assert _total(server, "serve.wire_errors") == 1.0
                assert await _granted(survivor)
                late = await _tcp_client(server)
                assert await _granted(late, sender="V1", index=1)
                await survivor.close()
                await late.close()
            finally:
                await server.shutdown()

        _run(body())

    def test_client_that_stops_reading_is_not_read(self):
        """Each frame's replies echo its 200 kB sender address, so a
        client that never reads fills the server's write buffer; the
        server must then stop reading its frames, and resume once the
        client reads again."""
        sender = "V" * 200_000
        n_frames = 60

        async def frames_when_steady(server):
            seen = -1.0
            for _ in range(100):
                await asyncio.sleep(0.1)
                count = _total(server, "serve.frames")
                if count == seen:
                    return count
                seen = count
            return seen

        async def body():
            server = await _tcp_server()
            try:
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                # A small receive window, so the server's replies back up
                # into its own buffers quickly.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32768)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(
                    sock, ("127.0.0.1", server.port)
                )
                reader, writer = await asyncio.open_connection(sock=sock)
                for _ in range(n_frames):
                    writer.write(encode_frame(
                        SyncRequest(sender=sender, receiver="IM", t0=0.0)
                    ))
                paused_at = await frames_when_steady(server)
                assert 0 < paused_at < n_frames
                # Reading again releases the server: every frame is
                # handled and answered (an Ack and a SyncResponse each).
                assembler = FrameAssembler()
                replies = 0
                while replies < 2 * n_frames:
                    chunk = await asyncio.wait_for(reader.read(1 << 20), 20.0)
                    assert chunk, "server closed the connection"
                    replies += len(assembler.feed(chunk))
                assert _total(server, "serve.frames") == n_frames
                assert _total(server, "serve.wire_errors") == 0.0
                writer.close()
            finally:
                await server.shutdown()

        _run(body())


class TestRealtimeBridge:
    """The bridge paces the kernel from one timer handle; a kick
    catches it up inline."""

    def test_kick_runs_injected_work_before_returning(self):
        async def body():
            env = Environment()
            bridge = RealtimeBridge(env, time_scale=10.0)
            bridge.start()
            runner = asyncio.ensure_future(bridge.run())
            await asyncio.sleep(0.01)
            ran = []

            def injected():
                ran.append(env.now)
                yield env.timeout(0.0)

            env.process(injected())
            bridge.kick()
            ran_inline = len(ran)  # no loop iteration in between
            bridge.stop()
            await runner
            assert ran_inline == 1

        _run(body())

    def test_kernel_error_ends_run_and_cancel_leaves_no_timer(self):
        async def body():
            env = Environment()

            def ticker():
                while True:
                    yield env.timeout(0.01)

            env.process(ticker())
            bridge = RealtimeBridge(env, time_scale=1.0)
            bridge.start()
            runner = asyncio.ensure_future(bridge.run())
            await asyncio.sleep(0.05)
            runner.cancel()
            with pytest.raises(asyncio.CancelledError):
                await runner
            frozen = env.events_processed
            await asyncio.sleep(0.05)
            assert env.events_processed == frozen

            def failing():
                yield env.timeout(0.01)
                raise RuntimeError("kernel failure")

            env.process(failing())
            bridge.start()
            with pytest.raises(RuntimeError, match="kernel failure"):
                await asyncio.wait_for(bridge.run(), 5.0)

        _run(body())

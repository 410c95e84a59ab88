"""Driving a simulated :class:`~repro.sim.world.World` over the wire.

The loopback-equivalence half of the serve mode: a stock single-node
world — vehicles, clocks, plants, protocol machines, all unchanged —
whose transport is the socket fabric instead of the in-process
channel.  Vehicle traffic addressed to the IM crosses a real link to a
remote :class:`~repro.serve.server.ImServer`; everything else behaves
exactly as in the DES.

The world still constructs its *local* IM (the node runtime always
does); :class:`ClientSocketTransport` force-routes the IM address over
the link, so the local IM is attached but starved — a deliberate
sleight of hand that keeps the simulation side byte-for-byte
unmodified, as the Transport seam promises.
"""

from __future__ import annotations

import asyncio
from typing import Callable, List, Optional

from repro.network.messages import Ack
from repro.network.wire import WireError, decode_message, encode_message
from repro.serve.link import StreamLink
from repro.serve.realtime import RealtimeBridge
from repro.serve.transport import SocketTransport

__all__ = [
    "ClientSocketTransport",
    "link_transport_factory",
    "run_world_over_link",
    "run_world_over_server",
]


class ClientSocketTransport(SocketTransport):
    """Vehicle-side fabric: IM-bound traffic goes over the link.

    The IM address is routed *before* the local radio lookup — the
    world's own (starved) IM stays attached, the remote one serves.
    """

    def __init__(self, env, link, im_address: str = "IM", on_deliver=None):
        super().__init__(env, on_deliver=on_deliver)
        self.link = link
        self.im_address = im_address

    def transmit(self, message) -> None:
        if message.receiver == self.im_address:
            self.stats.record_send(message)
            try:
                self.link.write_frame(encode_message(message))
            except WireError:  # pragma: no cover - outbound is trusted
                self.stats.record_loss("wire_error")
                return
            self.stats.record_delivery()
            return
        super().transmit(message)


def link_transport_factory(
    link,
    im_address: str = "IM",
    holder: Optional[List[ClientSocketTransport]] = None,
    on_deliver=None,
) -> Callable:
    """A ``transport_factory`` for :class:`~repro.sim.world.World`.

    Matches the :func:`~repro.network.transport.default_transport`
    signature; the channel-only knobs (delay model, loss, faults RNG)
    are ignored — latency and loss are whatever the link does.
    """

    def factory(env, delay_model=None, loss_probability=0.0, rng=None,
                faults=None, obs=None):
        transport = ClientSocketTransport(
            env, link, im_address=im_address, on_deliver=on_deliver,
        )
        if holder is not None:
            holder.append(transport)
        return transport

    return factory


async def _pump(link, transport, bridge) -> None:
    """Inbound side: decode frames, ack them, deliver into the world."""
    while True:
        try:
            payload = await link.read_frame()
        except WireError:
            break
        if payload is None:
            break
        try:
            message = decode_message(payload)
        except WireError:
            continue
        if isinstance(message, Ack):
            continue
        ack = Ack(
            sender=message.receiver,
            receiver=message.sender,
            acked_seq=message.seq,
        )
        ack.corr = message.corr
        try:
            link.write_frame(encode_message(ack))
        except WireError:  # pragma: no cover - outbound is trusted
            pass
        bridge.sync()
        transport.deliver_local(message)
        bridge.kick()


async def run_world_over_link(world, link, time_scale: float = 1.0):
    """Pace ``world`` against wall time until every vehicle despawns.

    The caller builds the world with
    ``transport_factory=link_transport_factory(link, ...)``; this
    drives its DES through a :class:`RealtimeBridge` with the link
    pump attached, then returns ``world.result()``.
    """
    bridge = RealtimeBridge(world.env, time_scale=time_scale, idle_tick=0.05)
    bridge.start()
    pump_task = asyncio.get_running_loop().create_task(
        _pump(link, world.channel, bridge)
    )
    try:
        await bridge.run(
            until=lambda: world.all_done
            or world.env.now >= world.config.max_sim_time
        )
    finally:
        bridge.stop()
        pump_task.cancel()
        try:
            await pump_task
        except (asyncio.CancelledError, Exception):
            pass
    return world.result()


def run_world_over_server(
    policy: str,
    arrivals,
    host: str,
    port: int,
    config=None,
    seed=None,
    time_scale: float = 1.0,
    metrics=None,
    on_deliver=None,
):
    """Blocking wrapper: connect, build the world, run it over TCP."""
    from repro.sim.world import World

    async def _run():
        reader, writer = await asyncio.open_connection(host, port)
        link = StreamLink(reader, writer, peer=f"{host}:{port}")
        world = World(
            policy,
            arrivals,
            config=config,
            seed=seed,
            metrics=metrics,
            transport_factory=link_transport_factory(
                link, on_deliver=on_deliver
            ),
        )
        try:
            return await run_world_over_link(world, link, time_scale)
        finally:
            link.close()
            await link.wait_closed()

    return asyncio.run(_run())

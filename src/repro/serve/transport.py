"""The socket fabric as a :class:`~repro.network.transport.Transport`.

The server hosts the unchanged IM core on a DES environment; the
vehicles live on the far side of real byte streams.  To the IM nothing
changed: ``make_im`` attaches a :class:`~repro.network.channel.Radio`
to this transport exactly as it would to a :class:`Channel`, and the
IM's replies go out through ``radio.send`` -> :meth:`transmit`.

Routing is two-tier:

* a **local radio** (the IM, or — on the client side — the vehicles)
  receives by inbox delivery, synchronously at the current ``env.now``;
* a **route** (a per-connection callable registered by the server's
  connection handler, or the client's uplink) carries everything else
  out over the wire.

Messages addressed to neither are dropped and attributed to
``by_reason["no_route"]`` — the same detach semantics as the channel
(the :class:`~repro.network.transport.Transport` contract).  Unlike
the channel there is no delay model and no loss: latency and loss are
whatever the real network does.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.network.channel import NetworkStats, Radio
from repro.network.messages import Message
from repro.network.transport import Transport

__all__ = ["SocketTransport"]


class SocketTransport(Transport):
    """Transport whose far side is a set of byte-stream routes.

    Parameters
    ----------
    env:
        The DES environment local protocol machines run on.
    on_deliver:
        Optional hook called with every locally delivered message
        (after inbox insertion) — the serve loopback tests use it to
        record decision sequences without touching the protocol path.
    """

    def __init__(self, env, on_deliver=None):
        self.env = env
        self.stats = NetworkStats()
        self.on_deliver: Optional[Callable[[Message], None]] = on_deliver
        self._radios: Dict[str, Radio] = {}
        self._routes: Dict[str, Callable[[Message], None]] = {}

    # -- Transport surface ---------------------------------------------------
    def attach(self, address: str) -> Radio:
        """Create and register a local radio under ``address``."""
        if address in self._radios:
            raise ValueError(f"address {address!r} already attached")
        radio = Radio(self, address)
        self._radios[address] = radio
        return radio

    def detach(self, address: str) -> None:
        """Remove a local endpoint; later traffic to it becomes
        ``by_reason["no_route"]`` drops (never raises)."""
        self._radios.pop(address, None)

    def transmit(self, message: Message) -> None:
        """Deliver locally, or ship over the peer's route, or drop."""
        self.stats.record_send(message)
        radio = self._radios.get(message.receiver)
        if radio is not None:
            self._deliver_to(radio, message)
            return
        route = self._routes.get(message.receiver)
        if route is not None:
            route(message)
            self.stats.record_delivery()
            return
        self.stats.record_loss("no_route")

    # -- wire-side entry points ----------------------------------------------
    def register_route(
        self, address: str, send: Callable[[Message], None]
    ) -> None:
        """Bind ``address`` to a connection's outgoing-frame callable."""
        self._routes[address] = send

    def unregister_route(self, address: str) -> None:
        self._routes.pop(address, None)

    def routes(self) -> int:
        """Number of live wire routes (connection gauge)."""
        return len(self._routes)

    def deliver_local(self, message: Message) -> None:
        """Inject a message that arrived *off* the wire.

        Counts as a send+delivery on this medium (the remote half
        counted its own transmit on its side of the wire).
        """
        self.stats.record_send(message)
        radio = self._radios.get(message.receiver)
        if radio is None:
            self.stats.record_loss("no_route")
            return
        self._deliver_to(radio, message)

    def drop(self, message: Message, reason: str) -> None:
        """Account an administratively dropped inbound message
        (overload shedding) without delivering it."""
        self.stats.record_send(message)
        self.stats.record_loss(reason)

    # -- internals -----------------------------------------------------------
    def _deliver_to(self, radio: Radio, message: Message) -> None:
        if radio.accept(message):
            self.stats.record_delivery()
            if self.on_deliver is not None:
                self.on_deliver(message)
        else:
            self.stats.record_duplicate_dropped(message)

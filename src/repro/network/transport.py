"""The medium seam: attach / detach / transmit behind a protocol class.

:class:`Transport` is the only surface the simulation engines see of
the wireless medium.  The in-process :class:`~repro.network.channel.Channel`
is the default implementation (reached through
:func:`default_transport`, so engine/world/grid code never names it);
future deployments — sharded grids with per-shard bridges, an
IM-as-a-service socket fabric — implement the same three calls and
drop in underneath every existing world.

The accounting contract rides along: implementations expose ``stats``
shaped like :class:`~repro.network.channel.NetworkStats`, whose
``by_endpoint`` counters attribute the shared medium's traffic per
address — on a single-IM world ``by_endpoint[im] == sent``, the
identity the grid/world equivalence suite pins.
"""

from __future__ import annotations

import abc

__all__ = ["Transport", "default_transport"]


class Transport(abc.ABC):
    """Abstract medium: endpoints attach radios and transmit messages.

    Beyond the three abstract calls, implementations carry:

    ``env``
        The DES environment deliveries are scheduled on.
    ``stats``
        A :class:`~repro.network.channel.NetworkStats`-shaped counter
        object (global totals plus ``by_endpoint`` /
        ``bytes_by_endpoint`` / ``dupes_by_endpoint`` attribution).
    """

    @abc.abstractmethod
    def attach(self, address: str):
        """Create and register an endpoint; returns its radio."""

    @abc.abstractmethod
    def detach(self, address: str) -> None:
        """Remove an endpoint.

        Detaching never raises — not for an unknown address, and not
        when traffic to the endpoint is still in flight.  Messages
        addressed to a detached (or never-attached) endpoint are
        dropped silently and attributed to ``by_reason["no_route"]``
        in :attr:`stats`; senders observe only the missing reply.
        Both :class:`~repro.network.channel.Channel` and
        :class:`repro.serve.SocketTransport` honour this contract
        (pinned by the transport test suite).
        """

    @abc.abstractmethod
    def transmit(self, message) -> None:
        """Schedule delivery of ``message`` to its receiver."""


def default_transport(
    env,
    delay_model=None,
    loss_probability: float = 0.0,
    rng=None,
    faults=None,
    obs=None,
) -> Transport:
    """The stock in-process medium.

    Lazily imports the :class:`~repro.network.channel.Channel`
    implementation so the callers that must stay behind the seam
    (``repro.sim``, ``repro.grid`` — lint-enforced) never import it.
    """
    from repro.network.channel import Channel

    return Channel(
        env,
        delay_model=delay_model,
        loss_probability=loss_probability,
        rng=rng,
        faults=faults,
        obs=obs,
    )

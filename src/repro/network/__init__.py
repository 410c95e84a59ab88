"""V2I network substrate: messages, delay models, channels, radios.

The testbed used NRF24L01+ 2.4 GHz serial adapters with a measured
worst-case one-way delay of 7.5 ms (15 ms round trip).  We model the
medium as a :class:`Channel` that delivers messages to per-node
:class:`Radio` inboxes after a sampled delay, with optional loss.  All
traffic is counted by :class:`NetworkStats`, which feeds the Ch 7.2
"network overhead" comparison (AIM generates up to ~20X more messages
than Crossroads because of its re-request storms).
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.network.channel": ("Channel", "NetworkStats", "Radio"),
    "repro.network.delay": (
        "ConstantDelay", "DelayModel", "GammaDelay", "UniformDelay",
        "testbed_delay_model",
    ),
    "repro.network.messages": (
        "Ack", "AimAccept", "AimReject", "AimRequest", "CancelReservation",
        "CrossingRequest", "CrossroadsCommand", "ExitNotification", "Message",
        "SyncRequest", "SyncResponse", "VelocityCommand",
    ),
    "repro.network.transport": ("Transport", "default_transport"),
})

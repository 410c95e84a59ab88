"""IM-as-a-service: the real-time streaming execution mode (L8).

The unchanged IM core behind an asyncio server speaking the
:mod:`repro.network.wire` framing of the stock message dataclasses —
over TCP or an in-process queue pipe — with WC-RTD *measured* online
from link acks instead of configured, backpressure by
reject-with-backoff, and the :mod:`repro.obs.metrics` snapshot on an
HTTP ``/metrics`` scrape endpoint.  See DESIGN.md ("Serve layer") and
README ("Serving").
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.serve.client": ("ServeClient",),
    "repro.serve.estimator": ("RtdEstimator",),
    "repro.serve.link": ("QueueLink", "StreamLink", "queue_pipe"),
    "repro.serve.loadgen": ("LoadReport", "bench_serve", "run_load"),
    "repro.serve.realtime": ("RealtimeBridge",),
    "repro.serve.server": ("ImServer", "ServeConfig"),
    "repro.serve.transport": ("SocketTransport",),
    "repro.serve.worldclient": (
        "ClientSocketTransport", "link_transport_factory",
        "run_world_over_link", "run_world_over_server",
    ),
})

"""Open-loop load generator and the ``bench serve`` sweep.

:func:`run_load` fires crossing transactions at a fixed rate against a
serve-mode IM — open loop (send times follow the schedule, not the
responses), the standard way to measure a server's sustainable
throughput and its behaviour *past* saturation.  One transaction is
the vehicle lifecycle in miniature: ``CrossingRequest`` -> grant /
reject / timeout -> ``ExitNotification`` (so the scheduler's state is
released and the IM doesn't saturate on ghost reservations).  Each
round trip is timed from the transaction's *scheduled* send instant,
``start + index / rate``, so a stall anywhere — in the server or in
the generator's own loop — shows in the latency of every transaction
it delays; how late the generator actually sent is reported apart, as
its send lag.

:func:`bench_serve` self-hosts a TCP server and sweeps a list of
rates, producing the ``BENCH_serve.json`` payload the bench gate
tracks: per-rate TPS / p50 / p99 wall RTD / reject + timeout counts,
plus the overload-degradation evidence (rejects in
``NetworkStats.by_reason``, bounded backlog, server alive after the
sweep).
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.geometry.layout import Approach, Movement, Turn
from repro.network.messages import AimReject, CrossingRequest, ExitNotification
from repro.serve.client import ServeClient
from repro.serve.server import ImServer, ServeConfig
from repro.vehicle.spec import VehicleInfo, VehicleSpec

__all__ = ["LoadReport", "bench_serve", "run_load"]

#: Sender-address pool size: bounds the server's route table, sequence
#: guard and scheduler state no matter how long the run (addresses are
#: recycled; each transaction exits before its address is reused).
_ADDRESS_POOL = 4096

_APPROACHES = (Approach.NORTH, Approach.EAST, Approach.SOUTH, Approach.WEST)


@dataclass
class LoadReport:
    """Outcome of one fixed-rate run."""

    rate: float
    duration_s: float
    sent: int = 0
    completed: int = 0
    rejects: int = 0
    timeouts: int = 0
    #: Wall-clock scheduled send -> reply round trips, seconds.
    rtds_wall: List[float] = field(default_factory=list)
    #: Actual send - scheduled send, wall seconds, per transaction.
    lags_wall: List[float] = field(default_factory=list)

    @staticmethod
    def _quantile(values: List[float], q: float) -> float:
        if not values:
            return 0.0
        ordered = sorted(values)
        return ordered[min(int(q * len(ordered)), len(ordered) - 1)]

    @property
    def tps(self) -> float:
        """Completed transactions per wall second."""
        return self.completed / self.duration_s if self.duration_s else 0.0

    def to_dict(self) -> dict:
        answered = max(self.sent, 1)
        return {
            "rate": self.rate,
            "sent": self.sent,
            "completed": self.completed,
            "rejects": self.rejects,
            "timeouts": self.timeouts,
            "tps": round(self.tps, 3),
            "reject_rate": round(self.rejects / answered, 4),
            "timeout_rate": round(self.timeouts / answered, 4),
            "rtd_p50_wall_s": round(self._quantile(self.rtds_wall, 0.50), 6),
            "rtd_p99_wall_s": round(self._quantile(self.rtds_wall, 0.99), 6),
            "rtd_max_wall_s": round(
                max(self.rtds_wall) if self.rtds_wall else 0.0, 6
            ),
            "send_lag_p99_wall_s": round(
                self._quantile(self.lags_wall, 0.99), 6
            ),
        }


async def _transaction(
    client: ServeClient,
    index: int,
    due: float,
    im_address: str,
    report: LoadReport,
    request_timeout: float,
) -> None:
    loop = asyncio.get_running_loop()
    vehicle_id = index % _ADDRESS_POOL
    sender = f"V{vehicle_id}"
    request = CrossingRequest(
        sender=sender,
        receiver=im_address,
        tt=client.local_time(),
        dt=6.0,
        vc=2.0,
        vehicle_info=VehicleInfo(
            vehicle_id=vehicle_id,
            spec=VehicleSpec(),
            movement=Movement(
                entry=_APPROACHES[index % 4], turn=Turn.STRAIGHT
            ),
        ),
    )
    reply = await client.request(request, timeout=request_timeout)
    if reply is None:
        report.timeouts += 1
        return
    report.rtds_wall.append(loop.time() - due)
    if isinstance(reply, AimReject):
        report.rejects += 1
        return
    report.completed += 1
    # Release the slot so sustained load measures steady state, not a
    # scheduler filling up with ghosts.
    exit_note = ExitNotification(
        sender=sender, receiver=im_address, exit_time=client.local_time()
    )
    await client.send(exit_note)


async def run_load(
    client: ServeClient,
    rate: float,
    duration_s: float,
    im_address: str = "IM",
    request_timeout: float = 2.0,
    sync_first: bool = True,
) -> LoadReport:
    """Open-loop fixed-rate load against an already-connected client.

    ``rate`` is transactions per *wall* second; ``duration_s`` is wall
    seconds of sending (the tail of outstanding requests is awaited).
    """
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration_s must be positive")
    if sync_first:
        await client.sync_clock(im_address)
    report = LoadReport(rate=rate, duration_s=duration_s)
    loop = asyncio.get_running_loop()
    start = loop.time()
    total = max(int(rate * duration_s), 1)
    tasks = []
    for index in range(total):
        # Absolute schedule: no drift accumulation from per-send jitter.
        due = start + index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        report.sent += 1
        report.lags_wall.append(loop.time() - due)
        tasks.append(
            loop.create_task(
                _transaction(
                    client, index, due, im_address, report, request_timeout
                )
            )
        )
    await asyncio.gather(*tasks)
    return report


def bench_serve(
    rates: Sequence[float] = (40.0, 120.0, 800.0),
    duration_s: float = 2.0,
    policy: str = "crossroads",
    time_scale: float = 10.0,
    max_queue: int = 64,
    safety_factor: float = 2.0,
    host: str = "127.0.0.1",
    metrics_registry=None,
) -> dict:
    """Self-hosted TCP rate sweep; returns the BENCH_serve payload."""

    async def _sweep() -> dict:
        config = ServeConfig(
            policy=policy,
            host=host,
            port=0,
            time_scale=time_scale,
            max_queue=max_queue,
            safety_factor=safety_factor,
        )
        server = ImServer(config, metrics=metrics_registry)
        await server.start()
        sweep = {}
        peak_backlog = 0
        try:
            for rate in rates:
                client = await ServeClient.connect(
                    host, server.port, time_scale=time_scale
                )
                try:
                    report = await run_load(client, rate, duration_s)
                finally:
                    await client.close()
                sweep[f"rate_{rate:g}"] = report.to_dict()
                peak_backlog = max(peak_backlog, server.im.stats.peak_queue)
            # Post-sweep liveness probe: the server must still answer
            # after being driven past saturation.
            probe = await ServeClient.connect(
                host, server.port, time_scale=time_scale
            )
            try:
                alive_report = await run_load(
                    probe, rate=20.0, duration_s=0.25
                )
            finally:
                await probe.close()
            stats = server.transport.stats
            payload = {
                "workload": {
                    "policy": policy,
                    "rates": [float(r) for r in rates],
                    "duration_s": duration_s,
                    "time_scale": time_scale,
                    "max_queue": max_queue,
                    "safety_factor": safety_factor,
                },
                "sweep": sweep,
                "overload": {
                    "rejects": int(stats.by_reason.get("overload", 0)),
                    "peak_backlog": int(peak_backlog),
                    "alive_after_overload": alive_report.completed > 0,
                },
                "server": {
                    "requests_served": int(server.im.stats.crossing_requests),
                    "wc_rtd_estimate_s": round(server.wc_rtd_estimate(), 6),
                    "worst_service_s": round(
                        server.im.stats.worst_service_time, 6
                    ),
                    "rtd_samples": int(server.estimator.count),
                },
                "cpus": os.cpu_count(),
            }
        finally:
            await server.shutdown()
        return payload

    return asyncio.run(_sweep())

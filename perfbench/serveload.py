"""The ``serve-200rps`` workload: an open-loop load generator against a live
``python -m repro serve`` process.

The load generator fixes every transaction's send instant before it starts
(``start + i / rate``) and times each transaction from that *scheduled*
instant to its reply, so a stall anywhere — in the server, the network
or the load generator itself — shows in the latency of every transaction it
delays.  How late the load generator actually sent is recorded separately as
its lag.  (``repro.serve.loadgen.run_load`` starts its clock inside the
transaction task, so a busy loop hides its own delay there.)
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Offered load, transactions per wall second (open loop).
RATE = 200.0
#: Simulated seconds per wall second in the server.
TIME_SCALE = 10.0
MAX_QUEUE = 64
#: Wall seconds a transaction may wait for its reply before it counts
#: as a timeout.
REQUEST_TIMEOUT = 2.0
#: Untimed load before the window (lets the WC-RTD estimator settle).
WARMUP_S = 1.0
IM_ADDRESS = "IM"
HOST = "127.0.0.1"
#: Sender addresses are recycled past this many (each transaction
#: exits before its address comes round again).
ADDRESS_POOL = 4096
#: The cores this process may use, read once at import (pinning the
#: load generator narrows the mask, and the server inherits its mask).
_CORES = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def can_pin() -> bool:
    """True when the load generator and the server can each have a core."""
    return len(_CORES) >= 2


def pin_loadgen() -> None:
    """Pin this (the load generator's) process to the first core."""
    if can_pin():
        os.sched_setaffinity(0, {_CORES[0]})


def pin_server(pid: int) -> None:
    """Pin the server to the second core, so the load generator and the server
    never queue for the same core."""
    if can_pin():
        os.sched_setaffinity(pid, {_CORES[1]})


class CoreProbe:
    """Calibration batches (:mod:`calibrate`) on the server's core for
    as long as the probe runs, in the idle scheduling class: they use
    only the time the server leaves idle, and the server preempts them
    as soon as it wakes."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(self.root / "perfbench" / "calibrate.py")],
            cwd=self.root, stdout=subprocess.PIPE, text=True,
        )
        if can_pin():
            os.sched_setaffinity(self.proc.pid, {_CORES[1]})
        if self.proc.stdout.readline().strip() != "ready":
            self._end()
            raise RuntimeError("calibration probe did not start")

    def _end(self, timeout: float = 30.0) -> str:
        """SIGTERM, then reap; returns what the probe printed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out or ""

    def stop(self) -> float:
        """End the probe; returns the mean CPU seconds of its batches."""
        lines = self._end().splitlines()
        batches = json.loads(lines[-1]) if lines else []
        if not batches:
            raise RuntimeError("calibration probe ran no batch")
        return sum(batches) / len(batches)


def latency_limit_ms() -> float:
    """p99 limit: the default ``IMConfig.wc_rtd`` over the time scale."""
    from repro.core.base import IMConfig

    return IMConfig().wc_rtd * 1000.0 / TIME_SCALE


def quantile(values: List[float], q: float) -> float:
    """Inclusive linear-interpolated quantile (0 for no samples)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


@dataclass
class LoadResult:
    """What one open-loop window saw."""

    due: int = 0
    grants: int = 0
    rejects: int = 0
    timeouts: int = 0
    #: Scheduled send -> reply, wall seconds, per granted transaction.
    rtd_s: List[float] = field(default_factory=list)
    #: Actual send - scheduled send, wall seconds, per transaction.
    lag_s: List[float] = field(default_factory=list)
    #: First scheduled send -> last reply, wall seconds.
    window_s: float = 0.0

    @property
    def failed(self) -> int:
        return self.due - self.grants


def transaction_plan(seed: int, n: int):
    """``(movement, speed)`` per transaction, drawn like the sims'
    arrivals (turn mix and entry speeds) from ``seed``."""
    from repro.traffic.generator import PoissonTraffic

    arrivals = PoissonTraffic(1.0, seed=seed).generate(n)
    return [(a.movement, a.speed) for a in arrivals]


async def open_loop(client, rate: float, plan, first_index: int = 0,
                    timeout: float = REQUEST_TIMEOUT) -> LoadResult:
    """Send ``plan`` at ``rate`` per second; await every reply.

    ``client`` needs ``request(message, timeout)``, ``send(message)``
    and ``local_time()`` (:class:`repro.serve.ServeClient` has them).
    """
    from repro.network.messages import AimReject, CrossingRequest, ExitNotification
    from repro.vehicle.spec import VehicleInfo, VehicleSpec

    loop = asyncio.get_running_loop()
    result = LoadResult(due=len(plan))
    spec = VehicleSpec()
    last_reply = 0.0

    async def transaction(index: int, due: float, movement, speed: float):
        nonlocal last_reply
        vehicle_id = index % ADDRESS_POOL
        sender = f"V{vehicle_id}"
        request = CrossingRequest(
            sender=sender, receiver=IM_ADDRESS, tt=client.local_time(),
            dt=6.0, vc=speed,
            vehicle_info=VehicleInfo(
                vehicle_id=vehicle_id, spec=spec, movement=movement
            ),
        )
        reply = await client.request(request, timeout=timeout)
        now = loop.time()
        last_reply = max(last_reply, now)
        if reply is None:
            result.timeouts += 1
        elif isinstance(reply, AimReject):
            result.rejects += 1
        else:
            result.grants += 1
            result.rtd_s.append(now - due)
            await client.send(ExitNotification(
                sender=sender, receiver=IM_ADDRESS,
                exit_time=client.local_time(),
            ))

    # The load generator's own garbage collection would stall the schedule; its
    # few cycles wait until the window ends.
    gc.collect()
    gc.disable()
    try:
        start = loop.time()
        tasks = []
        for offset, (movement, speed) in enumerate(plan):
            due = start + offset / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lag_s.append(loop.time() - due)
            tasks.append(loop.create_task(
                transaction(first_index + offset, due, movement, speed)
            ))
        await asyncio.gather(*tasks)
    finally:
        gc.enable()
    result.window_s = max(last_reply, loop.time()) - start
    return result


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class ServerProcess:
    """One ``repro serve`` process (optionally under the layer tracer)."""

    def __init__(self, root: Path, workdir: Path, traced: bool = False):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.traced = traced
        self.metrics_out = self.workdir / f"serve-metrics-{os.getpid()}.jsonl"
        self.trace_out = self.workdir / f"serve-trace-{os.getpid()}.json"
        self.proc: Optional[subprocess.Popen] = None
        self.port = self.http_port = 0
        self.final_line = ""

    def start(self, timeout: float = 60.0) -> None:
        args = [
            "serve", "--policy", "crossroads", "--host", HOST, "--port", "0",
            "--http-port", "0", "--time-scale", f"{TIME_SCALE:g}",
            "--max-queue", str(MAX_QUEUE), "--metrics-out", str(self.metrics_out),
        ]
        if self.traced:
            command = [sys.executable, str(self.root / "perfbench" / "serve_traced.py"),
                       str(self.trace_out)] + args
        else:
            command = [sys.executable, "-m", "repro"] + args
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.proc = subprocess.Popen(
            command, cwd=self.root, env=env, stdout=subprocess.PIPE, text=True
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if "serving" not in line:
            self.stop()
            raise RuntimeError(f"serve did not start: {line!r}")
        # "serving ... on tcp HOST:PORT (...); metrics on http://HOST:PORT/metrics"
        self.port = int(line.split(" on tcp ")[1].split()[0].rsplit(":", 1)[1])
        self.http_port = int(line.split("http://")[1].split("/")[0].rsplit(":", 1)[1])
        pin_server(self.proc.pid)

    def cpu_s(self) -> float:
        return _proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return _proc_peak_rss_mb(self.proc.pid)

    async def scrape(self) -> Dict[str, float]:
        """``GET /metrics`` -> ``{sample name: value}``."""
        from repro.obs.prom import parse_prometheus

        reader, writer = await asyncio.open_connection(HOST, self.http_port)
        try:
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10.0)
        finally:
            writer.close()
        body = raw.decode("utf-8").split("\r\n\r\n", 1)[1]
        return {
            name: value for name, labels, value in parse_prometheus(body)
            if not labels
        }

    def trace_mark(self, signum: int) -> None:
        """Open (SIGUSR1) or close (SIGUSR2) the traced server's window."""
        self.proc.send_signal(signum)

    def read_trace(self, timeout: float = 10.0) -> dict:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                with open(self.trace_out) as handle:
                    return json.load(handle)
            except (FileNotFoundError, json.JSONDecodeError):
                time.sleep(0.05)
        raise RuntimeError("traced server wrote no trace window")

    def backlog_peak(self) -> float:
        """Peak of the ``serve.backlog`` gauge over the server's life,
        from the snapshot it writes on shutdown."""
        peak = 0.0
        with open(self.metrics_out) as handle:
            for line in handle:
                record = json.loads(line)
                if record["name"] == "serve.backlog":
                    peak = max([peak] + list(record["series"].values()))
        return peak

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (the server drains and exits), then reap it."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        lines = [line for line in (out or "").splitlines() if line.strip()]
        self.final_line = lines[-1] if lines else ""

    def final_stats(self) -> Dict[str, int]:
        """Request counts from the server's shutdown line."""
        # "serve: drained and stopped; N requests (A accepts, R rejects, E exits), ..."
        head = self.final_line.split("; ", 1)[1]
        requests = int(head.split()[0])
        inner = head.split("(", 1)[1].split(")", 1)[0]
        counts = {part.split()[1]: int(part.split()[0]) for part in inner.split(", ")}
        counts["requests"] = requests
        return counts

    def cleanup(self) -> None:
        for path in (self.metrics_out, self.trace_out):
            try:
                path.unlink()
            except FileNotFoundError:
                pass


async def start_session(root: Path, workdir: Path, traced: bool = False
                        ) -> Tuple[ServerProcess, object, float]:
    """Spawn a server, connect and clock-sync; returns the server, the
    client and the set-up seconds it took."""
    from repro.serve.client import ServeClient

    started = time.perf_counter()
    server = ServerProcess(root, workdir, traced=traced)
    await asyncio.get_running_loop().run_in_executor(None, server.start)
    try:
        client = await ServeClient.connect(HOST, server.port, time_scale=TIME_SCALE)
        await client.sync_clock(IM_ADDRESS)
    except BaseException:
        server.stop()
        server.cleanup()
        raise
    return server, client, time.perf_counter() - started


async def end_session(server: ServerProcess, client) -> None:
    await client.close()
    await asyncio.get_running_loop().run_in_executor(None, server.stop)

"""Host-speed calibration: timing in reference seconds.

On a shared virtual machine the same work takes 20–30% more or less
host time from one minute to the next, because the host's clock speed
and its other tenants change.  That drift is larger than any bound a
regression gate could use.  The benchmark therefore times a fixed,
program-independent kernel in between its operations and scales each
operation's host time by ``REFERENCE_BATCH_S / kernel time``: a
*reference second* is the time the work would have taken on a host
that runs one calibration batch in exactly ``REFERENCE_BATCH_S``.

The kernel is plain interpreter work (small objects, method calls,
float math, a heap, a dict) with a little NumPy, like the simulator's
own hot paths.  It never touches ``repro``, so a change to the program
moves reference seconds exactly as it moves host seconds.

Run as a script, this module is the probe that times batches on the
serve workload's server core (:func:`idle_probe`).
"""

from __future__ import annotations

import gc
import heapq
import json
import math
import os
import signal
import sys
import time
from typing import List, Sequence, Tuple

import numpy as np

#: Host seconds of one calibration batch at reference speed.
REFERENCE_BATCH_S = 0.050
_KERNEL_STEPS = 8000
_BATCH = 3
#: Brackets on either side of a timing that scale it.
_REACH = 2


class _Body:
    __slots__ = ("x", "v")

    def __init__(self, x: float, v: float):
        self.x = x
        self.v = v

    def step(self, dt: float) -> float:
        self.v = min(self.v + 0.5 * dt, 3.0)
        self.x += self.v * dt
        return self.x


def kernel(steps: int = _KERNEL_STEPS) -> float:
    """The fixed calibration workload (deterministic)."""
    bodies = [_Body(float(i), 1.0) for i in range(32)]
    heap: List[Tuple[float, int]] = []
    table = {}
    ramp = np.arange(64, dtype=float)
    acc = 0.0
    for i in range(steps):
        acc += bodies[i & 31].step(0.01) * 1e-3 + math.sqrt(i + 1.0)
        heapq.heappush(heap, (acc % 7.0, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        table[i & 255] = acc
        if i % 16 == 0:
            acc += float((ramp * 0.5 + acc).sum()) * 1e-9
    return acc


def pin() -> None:
    """Keep this process, and the processes it starts, on one core.

    Each core of a shared VM speeds up and slows down on its own (their
    per-second calibration speeds are uncorrelated), so a batch only
    reads the speed of the core it ran on."""
    if hasattr(os, "sched_getaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def batch() -> Tuple[float, float]:
    """Run one calibration batch; returns its (wall, CPU) seconds.

    Garbage left by the program is collected first, so the batch never
    pays for it."""
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(_BATCH):
        kernel()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def sample(seconds: float) -> Tuple[float, float]:
    """Mean (wall, CPU) seconds of the batches run in about ``seconds``
    of wall time (at least one batch)."""
    batches = [batch()]
    while sum(wall for wall, _ in batches) < seconds:
        batches.append(batch())
    return (sum(wall for wall, _ in batches) / len(batches),
            sum(cpu for _, cpu in batches) / len(batches))


def scaled(times: Sequence[float], brackets: Sequence[float]) -> List[float]:
    """``times`` in reference seconds.  ``brackets[i]`` and
    ``brackets[i + 1]`` are the calibration batches timed just before
    and just after ``times[i]``, in the same clock.  Each time is scaled
    by the mean of the ``_REACH`` brackets on either side of it: one
    batch is too short to read the host's speed well on its own."""
    out = []
    for i, t in enumerate(times):
        near = brackets[max(0, i + 1 - _REACH):i + 1 + _REACH]
        out.append(t * REFERENCE_BATCH_S * len(near) / sum(near))
    return out


def idle_probe() -> None:
    """Run batches in the idle scheduling class until SIGTERM, then
    print the CPU seconds of each batch as a JSON list."""
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    print("ready", flush=True)
    batches = []
    while not stop:
        batches.append(batch()[1])
    print(json.dumps(batches), flush=True)


if __name__ == "__main__":
    idle_probe()
    sys.exit(0)

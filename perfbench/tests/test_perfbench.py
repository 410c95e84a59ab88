"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q

Installing the layer tracer rewrites classes for the rest of the
process, so the traced checks run in a fresh interpreter.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pytest  # noqa: E402
import serveload  # noqa: E402

_TRACED_SMALL_CELLS = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
from pathlib import Path
import layertrace, sims

cells = [sims.Cell("crossroads", "crossroads", 1.0, 12),
         sims.Cell("aim", "aim", 1.0, 8),
         sims.AnalyticGrid(20, flows=(0.05, 1.0))]
for cell in cells:
    cell.setup(11)

def digests(cell):
    out = []
    for draw in (0, 1):
        cell.prepare(draw)
        out += [sims.digest(r.summary()) for _, r, _ in cell.op(draw)]
    return out

untraced = [digests(cell) for cell in cells]
tracer = layertrace.install(Path({root!r}))
before = tracer.snapshot()
traced = [digests(cell) for cell in cells]
delta = layertrace.delta(before, tracer.snapshot())
print(json.dumps({{
    "untraced": untraced, "traced": traced,
    "entries": tracer.entries,
    "layers": sorted(layertrace.load_layers(Path({root!r}))),
    "self_s": delta["self_s"],
}}))
"""


@pytest.fixture(scope="module")
def traced_small_cells() -> dict:
    code = _TRACED_SMALL_CELLS.format(
        src=str(ROOT / "src"), bench=str(ROOT / "perfbench"), root=str(ROOT)
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_traced_run_computes_what_the_untraced_run_computes(traced_small_cells):
    out = traced_small_cells
    assert out["traced"] == out["untraced"]
    # The spans saw the work: every sim workload's layers took time.
    for layer in ("des", "vehicle", "sensors", "core", "sim", "kinematics"):
        assert out["self_s"].get(layer, 0.0) > 0.0, layer


def test_every_entry_point_maps_to_a_layer_and_every_layer_has_one(traced_small_cells):
    import layertrace

    out = traced_small_cells
    layers = set(out["layers"])
    entries = out["entries"]
    assert entries
    assert set(entries.values()) <= layers
    covered = set(entries.values())
    for layer in layertrace.REPORTED_LAYERS:
        assert layer in covered, layer


class _FakeReply:
    pass


class _BlockingClient:
    """Answers at once, after blocking the event loop for ``block_s``
    on the requests listed in ``blocking``."""

    def __init__(self, block_s: float, blocking=None):
        self.block_s = block_s
        self.blocking = blocking
        self.requests = 0

    def local_time(self) -> float:
        return 0.0

    async def request(self, message, timeout):
        if self.blocking is None or self.requests in self.blocking:
            time.sleep(self.block_s)
        self.requests += 1
        return _FakeReply()

    async def send(self, message):
        return None


def _drive(client, rate: float, n: int) -> serveload.LoadResult:
    plan = serveload.transaction_plan(3, n)
    return asyncio.run(serveload.open_loop(client, rate, plan))


def test_reply_delay_counts_from_the_scheduled_send():
    block = 0.03
    result = _drive(_BlockingClient(block), rate=20.0, n=10)
    assert result.grants == result.due == 10
    p50 = serveload.quantile(result.rtd_s, 0.50)
    assert block <= p50 < block + 0.015
    # Sends stayed on schedule: the generator itself was never late.
    assert serveload.quantile(result.lag_s, 0.99) < 0.01


def test_a_stalled_loop_shows_as_lag_and_as_latency():
    # The first request blocks the loop for 200 ms while the next
    # nineteen are due every 10 ms: each is sent late by up to 190 ms,
    # and its latency counts from when it was due.
    stall = 0.2
    result = _drive(_BlockingClient(stall, blocking={0}), rate=100.0, n=40)
    assert serveload.quantile(result.lag_s, 0.99) >= stall - 0.02
    assert serveload.quantile(result.rtd_s, 0.99) >= stall - 0.02
    assert max(result.lag_s[20:]) < 0.01


def test_a_run_counts_each_draw_once_however_long_it_runs():
    import sims

    runs = []
    for seconds in (0.0, 1.5):
        cell = sims.Cell("crossroads", "crossroads", 1.0, 8, draws=2)
        cell.setup(11)
        run = sims.SimRun(cell)
        run.run_for(seconds, range(cell.draws))
        assert not run.problems
        runs.append(run)
    short, long = runs
    assert len(short.op_wall) == 2 < len(long.op_wall)
    assert long.op_draws[:4] == [0, 1, 0, 1]
    assert (short.vehicles, short.failed, short.digests) == (
        long.vehicles, long.failed, long.digests)
    assert short.vehicles == 16


class _DriftingCell:
    """A workload whose output changes every time a draw runs."""

    draws = 1

    def __init__(self):
        self.runs = 0

    def prepare(self, draw):
        pass

    def op(self, draw):
        self.runs += 1
        result = type("Result", (), {
            "n_finished": 1, "collisions": 0,
            "summary": lambda _, runs=self.runs: {"runs": runs},
        })()
        return [(f"drifting#{draw}", result, 1)]

    def check(self, results):
        return []


def test_a_repeated_draw_must_reproduce_its_outputs():
    import sims

    run = sims.SimRun(_DriftingCell())
    run.run_op(0)
    assert not run.problems
    run.run_op(0)
    assert run.problems == ["draw 0 gave different outputs when repeated"]
    assert run.vehicles == 1

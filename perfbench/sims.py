"""The simulation workloads: the saturated E5 cells and the Fig 7.2 grid.

A run is a sequence of *draws*: independent inputs of one workload,
numbered from 0, all derived from the run's seed.  Draw 0 follows
``run_flow``'s convention exactly, so the default seed reproduces the
E5 cells; draw ``k`` seeds its traffic and world with ``[base, k]``.
One *op* runs one draw: one complete cell, or one pass over the
analytic grid.  A run simulates a fixed number of draws, then repeats
them while its time lasts.  Running many draws per run averages out how
much work one random draw happens to be, so runs with different seeds
agree; fixing their number makes what a run attempts, and which of its
vehicles fail, depend on the seed alone and not on the host's speed.

Every op is checked.  A vehicle that did not finish or was in a
collision episode is a failed operation, counted once per draw; a
repeated draw must reproduce its first outputs exactly; the analytic
grid must keep the E5 orderings.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import statistics
import time
from typing import Dict, List, Optional, Tuple

import calibrate

#: Fig 7.2 policies on the analytic engine (AIM is micro-engine only).
FIG72_POLICIES = ("vt-im", "crossroads")
#: EXPERIMENTS.md E5: parity at the sparse end, Crossroads ahead once
#: VT-IM saturates.
PARITY_FLOW = 0.05
PARITY_TOLERANCE = 0.15
CROSSROADS_AHEAD_FROM = 0.3
#: Calibration after an op lasts this share of the op's wall time, so a
#: long op is bracketed by as many batches as several short ones.
CALIBRATION_SHARE = 0.1


def digest(summary: Dict[str, float]) -> str:
    """SHA-256 of a summary's sorted JSON (stable across processes)."""
    return hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode("utf-8")
    ).hexdigest()


def draw_seed(base: int, draw: int):
    """Seed of draw ``draw``: ``base`` itself for draw 0."""
    return base if draw == 0 else [base, draw]


def traffic(flow: float, n_cars: int, seed: int, draw: int = 0):
    """Arrivals by ``run_flow``'s convention (draw 0 is its cell)."""
    from repro.traffic.generator import PoissonTraffic

    return PoissonTraffic(
        flow, seed=draw_seed(seed + int(flow * 1000), draw)
    ).generate(n_cars)


def failed_vehicles(result, due: int) -> int:
    """Vehicles that did not finish, plus both vehicles of every
    collision episode (capped at the number due)."""
    unfinished = due - result.n_finished
    return min(due, unfinished + 2 * result.collisions)


class Cell:
    """One policy at one flow on the micro engine (``run_scenario``)."""

    def __init__(self, name: str, policy: str, flow: float, n_cars: int,
                 draws: int = 1):
        self.name = name
        self.policy = policy
        self.flow = flow
        self.n_cars = n_cars
        #: Distinct draws per run.
        self.draws = draws

    def setup(self, seed: int) -> None:
        """Geometry, conflict table and draw 0's arrivals."""
        from repro.geometry.conflicts import ConflictTable
        from repro.geometry.layout import IntersectionGeometry

        self.seed = seed
        self.geometry = IntersectionGeometry()
        self.conflicts = ConflictTable(self.geometry)
        self.arrivals = {0: traffic(self.flow, self.n_cars, seed)}

    def prepare(self, draw: int) -> None:
        """Generate a draw's arrivals (outside the timed op); only the
        current draw is kept, so memory does not grow with the run."""
        if draw not in self.arrivals:
            self.arrivals = {
                draw: traffic(self.flow, self.n_cars, self.seed, draw)
            }

    def op(self, draw: int) -> List[Tuple[str, object, int]]:
        """Run one draw; returns ``[(label, SimResult, vehicles due)]``."""
        from repro.sim.world import run_scenario

        arrivals = self.arrivals[draw]
        result = run_scenario(
            self.policy, arrivals, geometry=self.geometry,
            conflicts=self.conflicts, seed=draw_seed(self.seed, draw),
        )
        return [(f"{self.policy}@{self.flow:g}#{draw}", result, len(arrivals))]

    def check(self, results) -> List[str]:
        return []


class AnalyticGrid:
    """The paper-sized Fig 7.2 grid on the analytic engine."""

    name = "fig72-analytic"

    def __init__(self, n_cars: int, flows: Optional[Tuple[float, ...]] = None,
                 draws: int = 1):
        self.n_cars = n_cars
        self.flows = flows
        #: Distinct draws per run.
        self.draws = draws

    def setup(self, seed: int) -> None:
        """Geometry, conflict table and draw 0's arrivals at every flow."""
        from repro.geometry.conflicts import ConflictTable
        from repro.geometry.layout import IntersectionGeometry
        from repro.sim.flowsweep import PAPER_FLOW_RATES

        self.seed = seed
        self.geometry = IntersectionGeometry()
        self.conflicts = ConflictTable(self.geometry)
        if self.flows is None:
            self.flows = tuple(PAPER_FLOW_RATES)
        self.arrivals = {}
        self.prepare(0)

    def prepare(self, draw: int) -> None:
        if draw not in self.arrivals:
            self.arrivals = {draw: {
                flow: traffic(flow, self.n_cars, self.seed, draw)
                for flow in self.flows
            }}

    def op(self, draw: int) -> List[Tuple[str, object, int]]:
        """One pass over the grid."""
        from repro.sim.analytic import run_analytic

        out = []
        for policy in FIG72_POLICIES:
            for flow in self.flows:
                arrivals = self.arrivals[draw][flow]
                result = run_analytic(
                    policy, arrivals, geometry=self.geometry,
                    conflicts=self.conflicts,
                )
                out.append((f"{policy}@{flow:g}#{draw}", result, len(arrivals)))
        return out

    def check(self, results) -> List[str]:
        """The EXPERIMENTS.md E5 orderings on the measured throughputs."""
        throughput = {
            label.split("#")[0]: r.throughput for label, r, _ in results
        }
        problems = []
        for flow in self.flows:
            vt = throughput[f"vt-im@{flow:g}"]
            cr = throughput[f"crossroads@{flow:g}"]
            if flow == PARITY_FLOW and abs(cr / vt - 1.0) > PARITY_TOLERANCE:
                problems.append(
                    f"no parity at flow {flow:g}: CR/VT = {cr / vt:.3f}"
                )
            if flow >= CROSSROADS_AHEAD_FROM and not cr > vt:
                problems.append(
                    f"Crossroads not ahead at flow {flow:g}: {cr} <= {vt}"
                )
        return problems


def make(name: str):
    """The sim workload called ``name``."""
    # 40 cars per cell, as in EXPERIMENTS.md E5: small enough that a
    # run averages over many draws.  The draw counts make one pass
    # over a run's draws take about 20 s on a 2-vCPU VM.
    if name == "e5-sat-crossroads":
        return Cell(name, "crossroads", 1.0, 40, draws=24)
    if name == "e5-sat-aim":
        return Cell(name, "aim", 1.0, 40, draws=8)
    if name == "fig72-analytic":
        return AnalyticGrid(160, draws=8)
    raise KeyError(name)


class SimRun:
    """Runs a workload's ops, checks each one and keeps the timings.

    Counts (vehicles, failures) come from each draw's first op; a
    repeated draw only adds timings.  With ``calibrated`` set, a
    calibration batch (:mod:`calibrate`) runs before the first op and
    after every op, so each op is bracketed by two measurements of the
    host's current speed.
    """

    def __init__(self, workload, calibrated: bool = False):
        self.workload = workload
        self.calibrated = calibrated
        #: Mean (wall, CPU) seconds of a calibration batch, before the
        #: first op and after each op.
        self.calibration: List[Tuple[float, float]] = []
        self.op_wall: List[float] = []
        self.op_cpu: List[float] = []
        #: The draw each op ran.
        self.op_draws: List[int] = []
        self.vehicles = 0
        self.failed = 0
        self.finished = 0
        #: Failed output checks (the run is not correct).
        self.problems: List[str] = []
        #: Failed operations: vehicles that did not finish or collided.
        self.failures: List[str] = []
        #: draw -> label -> summary digest, from the draw's first op.
        self.digests: Dict[int, Dict[str, str]] = {}
        #: The latest op's ``(label, SimResult, due)`` triples.
        self.last_results: list = []

    def run_op(self, draw: int) -> None:
        self.workload.prepare(draw)
        if self.calibrated and not self.calibration:
            self.calibration.append(calibrate.batch())
        # Each op pays for its own garbage only.
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        results = self.workload.op(draw)
        self.op_wall.append(time.perf_counter() - wall0)
        self.op_cpu.append(time.process_time() - cpu0)
        self.op_draws.append(draw)
        if self.calibrated:
            self.calibration.append(
                calibrate.sample(CALIBRATION_SHARE * self.op_wall[-1]))
        self.absorb(draw, results)

    def per_draw(self, times) -> float:
        """Sum over the distinct draws of each draw's median op time,
        so every draw weighs the same however often it ran."""
        by_draw: Dict[int, List[float]] = {}
        for draw, t in zip(self.op_draws, times):
            by_draw.setdefault(draw, []).append(t)
        return sum(statistics.median(ts) for ts in by_draw.values())

    def host_seconds(self) -> Tuple[float, float]:
        """(wall, CPU) op time of one pass over the draws, host seconds."""
        return self.per_draw(self.op_wall), self.per_draw(self.op_cpu)

    def reference_seconds(self) -> Tuple[float, float]:
        """(wall, CPU) op time of one pass over the draws, in reference
        seconds."""
        return tuple(
            self.per_draw(calibrate.scaled(
                times, [c[clock] for c in self.calibration]))
            for clock, times in enumerate((self.op_wall, self.op_cpu))
        )

    def absorb(self, draw: int, results) -> None:
        """Check one op's results; fold a draw's first op into the
        totals."""
        digests = {label: digest(result.summary()) for label, result, _ in results}
        self.last_results = results
        if draw in self.digests:
            if digests != self.digests[draw]:
                self.problems.append(
                    f"draw {draw} gave different outputs when repeated"
                )
            return
        self.digests[draw] = digests
        for label, result, due in results:
            failed = failed_vehicles(result, due)
            self.vehicles += due
            self.failed += failed
            self.finished += result.n_finished
            if failed:
                self.failures.append(
                    f"{label}: {failed} of {due} vehicles unfinished or in "
                    f"{result.collisions} collision episode(s)"
                )
        self.problems.extend(self.workload.check(results))

    def run_for(self, seconds: float, draws) -> None:
        """Run every one of ``draws`` once, however long that takes, then
        repeat them in order until starting another op would overrun
        ``seconds``."""
        started = time.perf_counter()
        first_wall = {}
        for draw in draws:
            self.run_op(draw)
            first_wall[draw] = self.op_wall[-1]
        for draw in itertools.cycle(first_wall):
            if time.perf_counter() - started + first_wall[draw] > seconds:
                return
            self.run_op(draw)

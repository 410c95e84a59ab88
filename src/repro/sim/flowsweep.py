"""Flow-rate sweeps: the Fig 7.2 evaluation harness.

The paper's Matlab study routes 160 cars through the intersection at
input flows of 0.05-1.25 cars/lane/second and compares throughput,
computation time and network traffic of AIM, VT-IM and Crossroads,
using *the same* input traffic for every policy.  :func:`run_flow`
reproduces one grid cell and :func:`run_flow_sweep` the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.core.registry import portable_name
from repro.geometry.conflicts import ConflictTable
from repro.geometry.layout import IntersectionGeometry
from repro.traffic.generator import Arrival, PoissonTraffic

if TYPE_CHECKING:
    from repro.sim.metrics import SimResult
    from repro.sim.world import WorldConfig

__all__ = ["FlowPoint", "flow_arrivals", "run_flow", "run_flow_sweep"]

#: The paper's Fig 7.2 x-axis grid (cars/lane/second).
PAPER_FLOW_RATES = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 1.0, 1.25)


@dataclass(frozen=True)
class FlowPoint:
    """One (policy, flow) grid cell."""

    policy: str
    flow_rate: float
    result: SimResult

    @property
    def throughput(self) -> float:
        return self.result.throughput

    @property
    def average_delay(self) -> float:
        return self.result.average_delay

    @property
    def compute_time(self) -> float:
        return self.result.compute_time

    @property
    def messages(self) -> int:
        return self.result.messages_sent


def flow_arrivals(flow_rate: float, n_cars: int, seed: int) -> List[Arrival]:
    """The arrivals of one ``(flow_rate, seed)`` cell.

    The traffic seed is ``seed + int(flow_rate * 1000)``: it depends
    only on ``(flow_rate, seed)``, so every policy sees the identical
    arrival sequence — "the same input traffic flow and sequence of
    vehicle for all simulator to have a fair comparison" — and
    different flows of one sweep draw different sequences.
    """
    return PoissonTraffic(flow_rate, seed=seed + int(flow_rate * 1000)).generate(
        n_cars
    )


def run_scenario(policy, arrivals, **kwargs) -> SimResult:
    """:func:`repro.sim.world.run_scenario`, imported at the call so that
    reading :data:`PAPER_FLOW_RATES` does not load the engine."""
    from repro.sim.world import run_scenario

    return run_scenario(policy, arrivals, **kwargs)


def run_flow(
    policy: str,
    flow_rate: float,
    n_cars: int = 160,
    seed: int = 7,
    config: Optional[WorldConfig] = None,
    geometry: Optional[IntersectionGeometry] = None,
    conflicts: Optional[ConflictTable] = None,
) -> FlowPoint:
    """Run one policy at one flow rate on :func:`flow_arrivals`."""
    result = run_scenario(
        policy,
        flow_arrivals(flow_rate, n_cars, seed),
        config=config,
        geometry=geometry,
        conflicts=conflicts,
        seed=seed,
    )
    return FlowPoint(policy=result.policy, flow_rate=flow_rate, result=result)


def _flow_cell(
    policy: str,
    flow: float,
    n_cars: int,
    seed: int,
    config: Optional[WorldConfig],
) -> FlowPoint:
    """Module-level worker for one grid cell (picklable for the pool).

    Rebuilds geometry/conflicts in the worker process; construction is
    deterministic, so results match the serial shared-geometry path
    bit for bit.
    """
    return run_flow(policy, flow, n_cars=n_cars, seed=seed, config=config)


def run_flow_sweep(
    policies: Sequence[str] = ("aim", "vt-im", "crossroads"),
    flow_rates: Sequence[float] = PAPER_FLOW_RATES,
    n_cars: int = 160,
    seed: int = 7,
    config: Optional[WorldConfig] = None,
    jobs: Union[int, str, None] = None,
) -> Dict[str, List[FlowPoint]]:
    """The full Fig 7.2 grid: every policy at every flow rate.

    Returns ``{policy: [FlowPoint per flow rate]}``.  With ``jobs > 1``
    (or ``REPRO_JOBS`` set) the grid cells run on a process pool via
    :mod:`repro.sim.parallel`; every cell's seed is fixed up front, so
    the result is bit-identical to a serial run.  Serially, geometry
    analysis is shared across all runs.
    """
    policies = list(policies)
    flow_rates = [float(flow) for flow in flow_rates]
    if not policies:
        raise ValueError("policies must be non-empty")
    if not flow_rates:
        raise ValueError("flow_rates must be non-empty")
    from repro.sim.parallel import ParallelRunner, RunTask, resolve_jobs

    out: Dict[str, List[FlowPoint]] = {}
    n_jobs = resolve_jobs(jobs)
    if n_jobs > 1:
        # Tasks must stay picklable, so they carry policy *names*, not
        # specs — qualified with the registering module for plugin
        # policies, so a worker process that never imported the plugin
        # re-runs its registration before resolving (see
        # :func:`repro.core.registry.portable_name`).
        tasks = [
            RunTask(
                _flow_cell,
                (portable_name(policy), flow, n_cars, seed, config),
                label=f"{policy}@{flow}",
            )
            for policy in policies
            for flow in flow_rates
        ]
        results = ParallelRunner(n_jobs).map(tasks)
        for index, policy in enumerate(policies):
            points = results[
                index * len(flow_rates) : (index + 1) * len(flow_rates)
            ]
            out[points[0].policy] = points
        return out
    geometry = IntersectionGeometry()
    conflicts = ConflictTable(geometry)
    for policy in policies:
        points = []
        for flow in flow_rates:
            points.append(
                run_flow(
                    policy,
                    flow,
                    n_cars=n_cars,
                    seed=seed,
                    config=config,
                    geometry=geometry,
                    conflicts=conflicts,
                )
            )
        out[points[0].policy] = points
    return out

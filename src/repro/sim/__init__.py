"""Simulation engines and metrics.

:class:`World` is the micro-simulator: vehicles with noisy plants and
protocol state machines, a delayed/lossy channel, a real IM process,
per-node clocks, and a ground-truth safety monitor — the software twin
of the 1/10-scale testbed.  :func:`run_scenario` / :func:`run_flow`
are the two workload entry points (fixed arrival lists for Fig 7.1,
Poisson flows for Fig 7.2), and :mod:`repro.sim.flowsweep` drives the
full policy-by-flow grid of the Matlab evaluation.
"""

from repro.sim.analytic import AnalyticConfig, run_analytic
from repro.sim.engine import NodeRuntime, lane_predecessor
from repro.sim.flowsweep import FlowPoint, flow_arrivals, run_flow, run_flow_sweep
from repro.sim.metrics import SimResult, compare_policies
from repro.sim.parallel import ParallelRunner, RunTask, resolve_jobs, run_tasks
from repro.sim.replication import MetricStats, Replication, replicate, run_replicated
from repro.sim.world import World, WorldConfig, run_scenario

__all__ = [
    "AnalyticConfig",
    "FlowPoint",
    "MetricStats",
    "NodeRuntime",
    "ParallelRunner",
    "Replication",
    "RunTask",
    "replicate",
    "resolve_jobs",
    "run_replicated",
    "run_tasks",
    "SimResult",
    "World",
    "WorldConfig",
    "compare_policies",
    "lane_predecessor",
    "run_analytic",
    "flow_arrivals",
    "run_flow",
    "run_flow_sweep",
    "run_scenario",
]

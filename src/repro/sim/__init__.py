"""Simulation engines and metrics.

:class:`World` is the micro-simulator: vehicles with noisy plants and
protocol state machines, a delayed/lossy channel, a real IM process,
per-node clocks, and a ground-truth safety monitor — the software twin
of the 1/10-scale testbed.  :func:`run_scenario` / :func:`run_flow`
are the two workload entry points (fixed arrival lists for Fig 7.1,
Poisson flows for Fig 7.2), and :mod:`repro.sim.flowsweep` drives the
full policy-by-flow grid of the Matlab evaluation.
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.sim.analytic": ("AnalyticConfig", "run_analytic"),
    "repro.sim.engine": ("NodeRuntime", "lane_predecessor"),
    "repro.sim.flowsweep": (
        "FlowPoint", "flow_arrivals", "run_flow", "run_flow_sweep",
    ),
    "repro.sim.metrics": ("SimResult", "compare_policies"),
    "repro.sim.parallel": (
        "ParallelRunner", "RunTask", "resolve_jobs", "run_tasks",
    ),
    "repro.sim.replication": (
        "MetricStats", "Replication", "replicate", "run_replicated",
    ),
    "repro.sim.world": ("World", "WorldConfig", "run_scenario"),
})

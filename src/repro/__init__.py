"""Crossroads: time-sensitive autonomous intersection management.

A from-scratch reproduction of *"Crossroads — A Time-Sensitive
Autonomous Intersection Management Technique"* (Andert, Shrivastava et
al., DAC 2017), including every substrate the paper's evaluation needs:
a discrete-event kernel, network and clock-sync models, vehicle
kinematics and noisy plants, intersection geometry with conflict and
tile analyses, the three intersection-management policies (plain VT-IM,
query-based AIM, and Crossroads), and the full micro-simulation /
benchmark harness that regenerates the paper's figures.

Quick start::

    from repro import run_scenario, scale_model_scenarios

    scenario = scale_model_scenarios()[0]          # S1, the worst case
    result = run_scenario("crossroads", scenario.arrivals, seed=1)
    print(result.average_delay, result.safe)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
paper-vs-measured numbers.
"""

from repro._lazy import export

__version__ = "1.0.0"

__all__ = export(__name__, {
    "repro.core.aim": ("AimIM",),
    "repro.core.crossroads": ("CrossroadsIM",),
    "repro.core.policy": ("make_im",),
    "repro.core.vtim": ("VtimIM",),
    "repro.geometry.layout": (
        "Approach", "IntersectionGeometry", "Movement", "Turn",
    ),
    "repro.grid.runner": ("run_grid", "sweep_grid"),
    "repro.grid.spec": ("GridSpec", "corridor_spec"),
    "repro.grid.traffic": ("GridPoissonTraffic",),
    "repro.grid.world": ("GridResult", "GridWorld"),
    "repro.obs.metrics": ("MetricsRegistry", "merge_metrics_snapshots"),
    "repro.obs.prom": ("to_prometheus",),
    "repro.scenarios.library": ("scale_model_specs",),
    "repro.scenarios.oracle": ("SafetyOracle", "Violation"),
    "repro.scenarios.runner": ("ScenarioResult", "run_spec"),
    "repro.scenarios.spec": (
        "BehaviourSpec", "ScenarioSpec", "SpawnSpec", "TrafficSpec",
    ),
    "repro.sensors.buffer": ("SafetyBufferCalculator",),
    "repro.sim.analytic": ("run_analytic",),
    "repro.sim.flowsweep": ("run_flow", "run_flow_sweep"),
    "repro.sim.metrics": ("SimResult", "compare_policies"),
    "repro.sim.parallel": ("ParallelRunner", "RunTask"),
    "repro.sim.replication": ("run_replicated",),
    "repro.sim.world": ("World", "WorldConfig", "run_scenario"),
    "repro.traffic.generator": ("Arrival", "PoissonTraffic"),
    "repro.traffic.scenarios": ("Scenario", "scale_model_scenarios"),
    "repro.vehicle.spec": ("VehicleInfo", "VehicleSpec"),
}) + ["__version__"]

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

from repro.core import AimIM, CrossroadsIM, VtimIM, make_im
from repro.geometry import Approach, IntersectionGeometry, Movement, Turn
from repro.grid import (
    GridPoissonTraffic,
    GridResult,
    GridSpec,
    GridWorld,
    corridor_spec,
    run_grid,
    sweep_grid,
)
from repro.obs import MetricsRegistry, merge_metrics_snapshots, to_prometheus
from repro.scenarios import (
    BehaviourSpec,
    SafetyOracle,
    ScenarioResult,
    ScenarioSpec,
    SpawnSpec,
    TrafficSpec,
    Violation,
    run_spec,
    scale_model_specs,
)
from repro.sensors import SafetyBufferCalculator
from repro.sim import (
    ParallelRunner,
    RunTask,
    SimResult,
    World,
    WorldConfig,
    compare_policies,
    run_analytic,
    run_flow,
    run_flow_sweep,
    run_replicated,
    run_scenario,
)
from repro.traffic import Arrival, PoissonTraffic, Scenario, scale_model_scenarios
from repro.vehicle import VehicleInfo, VehicleSpec

__version__ = "1.0.0"

__all__ = [
    "AimIM",
    "Approach",
    "Arrival",
    "BehaviourSpec",
    "CrossroadsIM",
    "GridPoissonTraffic",
    "GridResult",
    "GridSpec",
    "GridWorld",
    "IntersectionGeometry",
    "MetricsRegistry",
    "Movement",
    "ParallelRunner",
    "PoissonTraffic",
    "RunTask",
    "SafetyBufferCalculator",
    "SafetyOracle",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "SimResult",
    "SpawnSpec",
    "TrafficSpec",
    "Turn",
    "VehicleInfo",
    "VehicleSpec",
    "Violation",
    "VtimIM",
    "World",
    "WorldConfig",
    "compare_policies",
    "corridor_spec",
    "make_im",
    "merge_metrics_snapshots",
    "run_analytic",
    "run_flow",
    "run_flow_sweep",
    "run_grid",
    "run_replicated",
    "run_scenario",
    "run_spec",
    "scale_model_scenarios",
    "scale_model_specs",
    "sweep_grid",
    "to_prometheus",
    "__version__",
]

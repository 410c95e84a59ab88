"""Golden-replay bit-identity suite: the repo's one golden harness.

Refactors here are *behaviour-preserving by construction*: the layered
protocol machines, the :class:`~repro.sim.engine.NodeRuntime` shared by
:class:`World` and :class:`~repro.grid.world.GridWorld`, the
:class:`~repro.network.transport.Transport` seam — every RNG draw and
every DES process creation keeps its order, so fixed seeds must
reproduce the pinned summaries, bit for bit.

``tests/golden/engine_equivalence.json`` pins the summaries recorded at
the last intentional behaviour change (the stop-line creep fix, which
widened the safe-stop latch for every policy):

* ``flow`` — 3 policies x 2 flows x 2 seeds, 12 cars per cell, through
  ``run_flow`` serially and through an explicit
  ``run_flow_sweep(jobs=2)``;
* ``world`` — 3 policies x 2 seeds through ``run_flow_sweep``;
* ``grid1`` — 1-node grids (crossroads and aim), whose node summary
  must *also* equal a plain :class:`World` run on the same arrivals
  (asserted live, not just against the golden);
* ``grid3`` — a 3-node mixed-policy corridor x 2 seeds, whole-network
  and per-node summaries;
* ``scenarios`` — every spec checked into ``scenarios/``: summary plus
  the oracle's violation kinds;
* ``counts`` — every ``count.*`` entry of the run-level ``perf`` dicts
  (``SimResult.perf``, ``GridResult.perf`` and each grid node's) for
  the world and grid cells.  Benchmarks read these keys with
  ``.get(key, 0.0)``, so a dropped key would otherwise read as a
  silent zero;
* ``monitor`` — what the summaries cannot see of the ground-truth
  safety monitor: ``min_separation`` (as ``float.hex``),
  ``buffer_violations`` and ``collisions`` of every world cell, every
  grid node (plus each grid's network ``collisions``) and every
  scenario-library spec, and the Fig 3.1 ``worst_case_elong`` bound
  with every trial's ``elong``.  Tier-1 checks Fig 3.1 only within
  tolerances, and its plants share one generator, so this is the pin
  that sees a reordered noise draw there;
* ``analytic`` — draw 0 of perfbench's ``fig72-analytic`` workload at
  seed 7: VT-IM and Crossroads x the 10 ``PAPER_FLOW_RATES`` x 160
  cars on the analytic engine.  Each cell pins its summary plus a
  SHA-256 over every record's ``enter_time``/``exit_time`` as
  ``float.hex``, so a scheduler or profile change that moves one
  booked slot by one ulp shows;
* ``e5`` — the saturated E5 cells (``run_flow`` at flow 1.0, 40 cars,
  seed 7) under Crossroads and AIM: summary, monitor pins and every
  ``count.*`` key.  These are the only saturated cells pinned here.

Apart from the ``flow`` cells' explicit 2-worker sweep, replay helpers
pass ``jobs=None`` so ``REPRO_JOBS`` picks the execution mode: the
tier-1 jobs run this file serially and the CI ``engine-equivalence``
job with ``REPRO_JOBS=2``, and both must match the goldens.
If a later PR changes behaviour *intentionally*, re-record with::

    PYTHONPATH=src python tests/test_engine_equivalence.py --record
"""

from __future__ import annotations

import json
import os
from typing import Dict, Tuple

import pytest

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "engine_equivalence.json"
)
LIBRARY = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

POLICIES = ("vt-im", "crossroads", "aim")
FLOW_FLOWS = (0.3, 0.8)
FLOW_SEEDS = (7, 11)
FLOW_CARS = 12
WORLD_SEEDS = (3, 17)
WORLD_FLOW = 0.5
WORLD_CARS = 10

GRID1_POLICIES = ("crossroads", "aim")
GRID1_SEED = 7
GRID3_POLICIES = ("crossroads", "aim", "vt-im")
GRID3_SEEDS = (5, 9)
GRID_FLOW = 0.3
GRID_CARS = 12

ELONG_SEED = 2017
ELONG_TRIALS = 20

ANALYTIC_POLICIES = ("vt-im", "crossroads")
ANALYTIC_CARS = 160
ANALYTIC_SEED = 7
E5_POLICIES = ("crossroads", "aim")
E5_FLOW = 1.0
E5_CARS = 40
E5_SEED = 7


def flow_key(policy: str, flow: float, seed: int) -> str:
    return f"{policy}@{flow:g}#s{seed}"


def world_key(policy: str, seed: int) -> str:
    return f"{policy}#s{seed}"


def perf_counts(perf: Dict[str, float]) -> Dict[str, float]:
    """The deterministic ``count.*`` entries of a run's ``perf`` dict."""
    return {k: v for k, v in perf.items() if k.startswith("count.")}


def monitor_pins(result) -> Dict:
    """One node's safety-monitor verdicts, floats as exact hex."""
    return {
        "min_separation": float(result.min_separation).hex(),
        "buffer_violations": result.buffer_violations,
        "collisions": result.collisions,
    }


def grid_monitor_pins(result) -> Dict:
    """A grid's network ``collisions`` and each node's monitor pins."""
    return {
        "collisions": result.collisions,
        "per_node": {
            name: monitor_pins(node) for name, node in result.per_node.items()
        },
    }


def _library_specs():
    from repro.scenarios import load_library

    return load_library(LIBRARY)


# -- cell runners (each returns plain JSON-able data) ----------------------

def run_flow_cell(policy: str, flow: float, seed: int) -> Dict[str, float]:
    """One flow cell through the stock ``run_flow`` entry point."""
    from repro.sim.flowsweep import run_flow

    return run_flow(policy, flow, n_cars=FLOW_CARS, seed=seed).result.summary()


def run_world_cells(
    jobs=None,
) -> Tuple[Dict[str, Dict], Dict[str, Dict], Dict[str, Dict]]:
    """All (policy, seed) cells through the stock sweep entry point;
    returns ``(summaries, counts, monitor)`` keyed by :func:`world_key`."""
    from repro.sim.flowsweep import run_flow_sweep

    cells: Dict[str, Dict] = {}
    counts: Dict[str, Dict] = {}
    monitor: Dict[str, Dict] = {}
    for seed in WORLD_SEEDS:
        sweep = run_flow_sweep(
            policies=list(POLICIES),
            flow_rates=[WORLD_FLOW],
            n_cars=WORLD_CARS,
            seed=seed,
            jobs=jobs,
        )
        for policy in POLICIES:
            (point,) = sweep[policy]
            cells[world_key(policy, seed)] = point.result.summary()
            counts[world_key(policy, seed)] = perf_counts(point.result.perf)
            monitor[world_key(policy, seed)] = monitor_pins(point.result)
    return cells, counts, monitor


def run_grid1_cell(policy: str) -> Dict[str, Dict]:
    """One 1-node grid; returns the network and node summaries, the
    network and node counts, and the monitor pins."""
    from repro.grid import GridPoissonTraffic, GridWorld, corridor_spec

    spec = corridor_spec(1, policy=policy)
    arrivals = GridPoissonTraffic(spec, 0.4, seed=11).generate(WORLD_CARS)
    result = GridWorld(spec, arrivals, seed=GRID1_SEED).run()
    return {
        "summary": result.summary(),
        "node": result.per_node["N0"].summary(),
        "counts": {
            "grid": perf_counts(result.perf),
            "N0": perf_counts(result.per_node["N0"].perf),
        },
        "monitor": grid_monitor_pins(result),
    }


def _grid3_cell(seed: int) -> Dict[str, Dict]:
    """Module-level picklable worker: one corridor run (the cell
    :func:`repro.grid.sweep_grid` runs), plus its counts and monitor
    pins."""
    from repro.grid import corridor_spec, run_grid

    spec = corridor_spec(3, policies=GRID3_POLICIES)
    result = run_grid(
        spec, GRID_CARS, flow_rate=GRID_FLOW, seed=seed, traffic_seed=seed
    )
    counts = {"grid": perf_counts(result.perf)}
    for name, node in result.per_node.items():
        counts[name] = perf_counts(node.perf)
    return {
        "summary": result.summary(),
        "per_node": {
            name: node.summary() for name, node in result.per_node.items()
        },
        "counts": counts,
        "monitor": grid_monitor_pins(result),
    }


def run_grid3_cells(jobs=None) -> Dict[str, Dict]:
    """The 3-node mixed-policy corridor across the pinned seeds."""
    from repro.sim.parallel import RunTask, run_tasks

    tasks = [RunTask(_grid3_cell, (seed,)) for seed in GRID3_SEEDS]
    rows = run_tasks(tasks, jobs)
    return {f"s{seed}": row for seed, row in zip(GRID3_SEEDS, rows)}


def run_scenario_cells(jobs=None) -> Dict[str, Dict]:
    """Replay the whole checked-in scenario library."""
    from repro.scenarios.runner import _spec_cell
    from repro.sim.parallel import RunTask, run_tasks

    specs = _library_specs()
    tasks = [
        RunTask(_spec_cell, (spec, spec.seed), label=spec.name)
        for spec in specs
    ]
    outcomes = run_tasks(tasks, jobs)
    return {
        outcome.spec.name: {
            "summary": outcome.result.summary(),
            "kinds": sorted(outcome.kinds),
            "monitor": monitor_pins(outcome.result),
        }
        for outcome in outcomes
    }


def run_worst_case_elong() -> Dict:
    """The Fig 3.1 bound and every trial's ``elong``, as exact hex."""
    import numpy as np

    from repro.sensors import worst_case_elong

    bound, up, down = worst_case_elong(
        trials=ELONG_TRIALS, rng=np.random.default_rng(ELONG_SEED)
    )
    return {
        "bound": bound.hex(),
        "up": [trial.elong.hex() for trial in up.trials],
        "down": [trial.elong.hex() for trial in down.trials],
    }


def _analytic_cell(policy: str, flow: float) -> Dict:
    """Module-level picklable worker: one analytic-engine cell of the
    Fig 7.2 grid, its summary and a digest of every booked crossing."""
    import hashlib

    from repro.sim.analytic import run_analytic
    from repro.sim.flowsweep import flow_arrivals

    result = run_analytic(
        policy, flow_arrivals(flow, ANALYTIC_CARS, ANALYTIC_SEED)
    )
    lines = [
        " ".join(
            [str(r.vehicle_id)]
            + [
                "none" if t is None else float(t).hex()
                for t in (r.enter_time, r.exit_time)
            ]
        )
        for r in result.records
    ]
    return {
        "summary": result.summary(),
        "times_sha256": hashlib.sha256(
            "\n".join(lines).encode("ascii")
        ).hexdigest(),
    }


def run_analytic_cells(jobs=None) -> Dict[str, Dict]:
    """The paper-sized analytic grid at :data:`ANALYTIC_SEED`."""
    from repro.sim.flowsweep import PAPER_FLOW_RATES
    from repro.sim.parallel import RunTask, run_tasks

    cells = [
        (policy, float(flow))
        for policy in ANALYTIC_POLICIES
        for flow in PAPER_FLOW_RATES
    ]
    rows = run_tasks([RunTask(_analytic_cell, cell) for cell in cells], jobs)
    return {
        flow_key(policy, flow, ANALYTIC_SEED): row
        for (policy, flow), row in zip(cells, rows)
    }


def _e5_cell(policy: str) -> Dict:
    """Module-level picklable worker: one saturated E5 cell."""
    from repro.sim.flowsweep import run_flow

    result = run_flow(policy, E5_FLOW, n_cars=E5_CARS, seed=E5_SEED).result
    return {
        "summary": result.summary(),
        "monitor": monitor_pins(result),
        "counts": perf_counts(result.perf),
    }


def run_e5_cells(jobs=None) -> Dict[str, Dict]:
    """The saturated E5 cells, keyed by :func:`flow_key`."""
    from repro.sim.parallel import RunTask, run_tasks

    rows = run_tasks(
        [RunTask(_e5_cell, (policy,)) for policy in E5_POLICIES], jobs
    )
    return {
        flow_key(policy, E5_FLOW, E5_SEED): row
        for policy, row in zip(E5_POLICIES, rows)
    }


def record_goldens(path: str = GOLDEN_PATH) -> Dict:
    world, world_counts, world_monitor = run_world_cells()
    grid1 = {p: run_grid1_cell(p) for p in GRID1_POLICIES}
    grid3 = run_grid3_cells()
    scenarios = run_scenario_cells()
    goldens = {
        "flow": {
            flow_key(policy, flow, seed): run_flow_cell(policy, flow, seed)
            for policy in POLICIES
            for flow in FLOW_FLOWS
            for seed in FLOW_SEEDS
        },
        "world": world,
        "grid1": {
            p: {"summary": c["summary"], "node": c["node"]}
            for p, c in grid1.items()
        },
        "grid3": {
            k: {"summary": c["summary"], "per_node": c["per_node"]}
            for k, c in grid3.items()
        },
        "scenarios": {
            name: {"summary": c["summary"], "kinds": c["kinds"]}
            for name, c in scenarios.items()
        },
        "counts": {
            "world": world_counts,
            "grid1": {p: c["counts"] for p, c in grid1.items()},
            "grid3": {k: c["counts"] for k, c in grid3.items()},
        },
        "monitor": {
            "world": world_monitor,
            "grid1": {p: c["monitor"] for p, c in grid1.items()},
            "grid3": {k: c["monitor"] for k, c in grid3.items()},
            "scenarios": {
                name: c["monitor"] for name, c in scenarios.items()
            },
            "worst_case_elong": run_worst_case_elong(),
        },
        "analytic": run_analytic_cells(),
        "e5": run_e5_cells(),
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
    return goldens


@pytest.fixture(scope="module")
def goldens() -> Dict:
    if not os.path.exists(GOLDEN_PATH):  # pragma: no cover - setup error
        pytest.fail(
            "golden file missing; record with "
            "`PYTHONPATH=src python tests/test_engine_equivalence.py --record`"
        )
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _assert_summary_equal(observed: Dict, pinned: Dict, label: str):
    assert set(observed) == set(pinned), f"{label}: summary keys changed"
    for key in sorted(pinned):
        assert observed[key] == pinned[key], (
            f"{label}: {key} drifted: {observed[key]!r} != "
            f"pinned {pinned[key]!r}"
        )


class TestFlowCells:
    """Every flow cell replays bit-identically through ``run_flow``, and
    through ``run_flow_sweep(jobs=2)``: worker placement must not
    perturb any RNG stream or resolution path (the registry-resolved
    policy name crosses the process boundary as a plain string)."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("flow", FLOW_FLOWS)
    @pytest.mark.parametrize("seed", FLOW_SEEDS)
    def test_cell_matches_golden(self, goldens, policy, flow, seed):
        key = flow_key(policy, flow, seed)
        assert key in goldens["flow"], f"golden file lacks {key}; re-record"
        _assert_summary_equal(
            run_flow_cell(policy, flow, seed), goldens["flow"][key], key
        )

    @pytest.mark.parametrize("seed", FLOW_SEEDS)
    def test_sweep_jobs2_matches_golden(self, goldens, seed):
        from repro.sim.flowsweep import run_flow_sweep

        sweep = run_flow_sweep(
            policies=list(POLICIES),
            flow_rates=list(FLOW_FLOWS),
            n_cars=FLOW_CARS,
            seed=seed,
            jobs=2,
        )
        for policy in POLICIES:
            points = sweep[policy]
            assert [p.flow_rate for p in points] == list(FLOW_FLOWS)
            for point in points:
                key = flow_key(policy, point.flow_rate, seed)
                _assert_summary_equal(
                    point.result.summary(), goldens["flow"][key],
                    f"jobs=2 {key}",
                )


class TestWorldReplay:
    """Single-intersection cells replay bit-identically."""

    def test_cells_match_golden(self, goldens):
        observed, counts, monitor = run_world_cells()
        assert set(observed) == set(goldens["world"])
        assert set(monitor) == set(goldens["monitor"]["world"])
        for key in sorted(observed):
            _assert_summary_equal(observed[key], goldens["world"][key], key)
            _assert_summary_equal(
                counts[key], goldens["counts"]["world"][key], f"{key} counts"
            )
            _assert_summary_equal(
                monitor[key], goldens["monitor"]["world"][key],
                f"{key} monitor",
            )


class TestGridReplay:
    """Grid composition replays bit-identically, and a 1-node grid *is*
    the plain single-intersection world."""

    @pytest.mark.parametrize("policy", GRID1_POLICIES)
    def test_one_node_grid_is_world(self, goldens, policy):
        from repro.grid import GridPoissonTraffic, corridor_spec
        from repro.sim.world import World

        observed = run_grid1_cell(policy)
        _assert_summary_equal(
            observed["node"], goldens["grid1"][policy]["node"],
            f"grid1[{policy}].node",
        )
        _assert_summary_equal(
            observed["summary"], goldens["grid1"][policy]["summary"],
            f"grid1[{policy}]",
        )
        for part, pinned in goldens["counts"]["grid1"][policy].items():
            _assert_summary_equal(
                observed["counts"][part], pinned,
                f"grid1[{policy}].{part} counts",
            )
        _assert_summary_equal(
            observed["monitor"], goldens["monitor"]["grid1"][policy],
            f"grid1[{policy}] monitor",
        )
        # The live half of the contract: same arrivals through a plain
        # World reproduce the node summary exactly (messages_sent rides
        # on the by_endpoint[im] == sent identity of a single-IM medium).
        spec = corridor_spec(1, policy=policy)
        arrivals = GridPoissonTraffic(spec, 0.4, seed=11).generate(WORLD_CARS)
        world = World(
            policy, [ga.arrival for ga in arrivals], seed=GRID1_SEED
        )
        _assert_summary_equal(
            observed["node"], world.run().summary(),
            f"grid1[{policy}] vs World",
        )

    def test_corridor_matches_golden(self, goldens):
        observed = run_grid3_cells()
        assert set(observed) == set(goldens["grid3"])
        for key in sorted(observed):
            _assert_summary_equal(
                observed[key]["summary"], goldens["grid3"][key]["summary"],
                f"grid3[{key}]",
            )
            assert (
                set(observed[key]["per_node"])
                == set(goldens["grid3"][key]["per_node"])
            )
            for node in sorted(observed[key]["per_node"]):
                _assert_summary_equal(
                    observed[key]["per_node"][node],
                    goldens["grid3"][key]["per_node"][node],
                    f"grid3[{key}].{node}",
                )
            pinned = goldens["counts"]["grid3"][key]
            assert set(observed[key]["counts"]) == set(pinned)
            for part in sorted(pinned):
                _assert_summary_equal(
                    observed[key]["counts"][part], pinned[part],
                    f"grid3[{key}].{part} counts",
                )
            _assert_summary_equal(
                observed[key]["monitor"], goldens["monitor"]["grid3"][key],
                f"grid3[{key}] monitor",
            )


class TestScenarioReplay:
    """Every checked-in scenario reproduces its pinned summary and
    violation kinds through the engine-backed world."""

    def test_library_matches_golden(self, goldens):
        observed = run_scenario_cells()
        assert set(observed) == set(goldens["scenarios"]), (
            "scenario library membership changed; re-record"
        )
        for name in sorted(observed):
            assert observed[name]["kinds"] == goldens["scenarios"][name]["kinds"], (
                f"{name}: violation kinds drifted"
            )
            _assert_summary_equal(
                observed[name]["summary"],
                goldens["scenarios"][name]["summary"],
                name,
            )
            _assert_summary_equal(
                observed[name]["monitor"],
                goldens["monitor"]["scenarios"][name],
                f"{name} monitor",
            )


class TestErrorExperimentReplay:
    """The Fig 3.1 experiment feeds every trial's plant from one
    generator, so its bound and trials pin the order of the noise
    draws across plants."""

    def test_worst_case_elong_matches_golden(self, goldens):
        _assert_summary_equal(
            run_worst_case_elong(),
            goldens["monitor"]["worst_case_elong"],
            "worst_case_elong",
        )


class TestAnalyticReplay:
    """The benchmark's Fig 7.2 pass (draw 0) replays bit-identically:
    every summary and every booked enter/exit time."""

    def test_cells_match_golden(self, goldens):
        observed = run_analytic_cells()
        assert set(observed) == set(goldens["analytic"])
        for key in sorted(observed):
            _assert_summary_equal(
                observed[key], goldens["analytic"][key], f"analytic[{key}]"
            )


class TestE5Replay:
    """The saturated E5 cells replay bit-identically: summary, monitor
    pins and every ``count.*`` key."""

    def test_cells_match_golden(self, goldens):
        observed = run_e5_cells()
        assert set(observed) == set(goldens["e5"])
        for key in sorted(observed):
            for part in ("summary", "monitor", "counts"):
                _assert_summary_equal(
                    observed[key][part], goldens["e5"][key][part],
                    f"e5[{key}].{part}",
                )


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--record", action="store_true",
                        help="(re-)record the golden summaries")
    args = parser.parse_args()
    if not args.record:
        parser.error("run under pytest, or pass --record")
    recorded = record_goldens()
    n = sum(len(v) for v in recorded.values())
    print(f"recorded {n} cells -> {GOLDEN_PATH}")
    sys.exit(0)

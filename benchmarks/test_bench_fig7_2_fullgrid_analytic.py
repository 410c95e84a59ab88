"""E5 (full scale) — Fig 7.2 on the analytic engine, paper-sized.

The micro-simulator benches default to a reduced grid for wall-time;
this bench runs the *paper's* full workload — 160 cars per cell over
the complete 0.05–1.25 cars/lane/second grid — on the ideal-vehicle
analytic engine (the moral equivalent of the authors' Matlab
simulators), which finishes in seconds.

AIM's trial-and-error loop needs the closed-loop micro engine, so this
grid covers the two VT-style policies; the AIM comparison lives in the
micro-engine bench.
"""

import pytest

from conftest import banner
from repro.analysis import render_table, speedup_summary
from repro.geometry import ConflictTable, IntersectionGeometry
from repro.sim import run_analytic
from repro.sim.flowsweep import PAPER_FLOW_RATES, FlowPoint, flow_arrivals

N_CARS = 160


def full_grid():
    geometry = IntersectionGeometry()
    conflicts = ConflictTable(geometry)
    sweep = {}
    for policy in ("vt-im", "crossroads"):
        points = []
        for flow in PAPER_FLOW_RATES:
            arrivals = flow_arrivals(flow, N_CARS, 7)
            result = run_analytic(
                policy, arrivals, geometry=geometry, conflicts=conflicts
            )
            points.append(FlowPoint(policy=result.policy, flow_rate=flow,
                                    result=result))
        sweep[policy] = points
    return sweep


def test_fig7_2_full_grid_analytic(benchmark):
    sweep = benchmark.pedantic(full_grid, rounds=1, iterations=1)

    rows = []
    for vt, cr in zip(sweep["vt-im"], sweep["crossroads"]):
        rows.append([vt.flow_rate, vt.throughput, cr.throughput,
                     cr.throughput / vt.throughput if vt.throughput else float("nan")])
    print(banner(f"Fig 7.2 (full grid, analytic engine, {N_CARS} cars/cell)"))
    print(render_table(
        ["flow (car/lane/s)", "VT-IM thr", "Crossroads thr", "CR/VT"],
        rows, precision=4,
    ))
    summary = speedup_summary(sweep, subject="crossroads")["vt-im"]
    print(f"\nCrossroads vs VT-IM: worst {summary['worst_case']:.2f}X, "
          f"avg {summary['average']:.2f}X  (paper: 1.62X / 1.36X)")

    # Every cell completes all 160 vehicles.
    for points in sweep.values():
        for point in points:
            assert point.result.n_finished == N_CARS, (
                point.policy, point.flow_rate,
            )

    by_flow = {
        (policy, p.flow_rate): p.throughput
        for policy, points in sweep.items()
        for p in points
    }
    # Parity at the sparse end; Crossroads strictly ahead from 0.3 on.
    low = PAPER_FLOW_RATES[0]
    assert by_flow[("crossroads", low)] == pytest.approx(
        by_flow[("vt-im", low)], rel=0.15
    )
    for flow in (f for f in PAPER_FLOW_RATES if f >= 0.3):
        assert by_flow[("crossroads", flow)] > by_flow[("vt-im", flow)]
    # Both saturate downward end-to-end.
    for policy in ("vt-im", "crossroads"):
        assert by_flow[(policy, PAPER_FLOW_RATES[-1])] < by_flow[(policy, low)]
    assert summary["worst_case"] > 1.6

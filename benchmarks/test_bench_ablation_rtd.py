"""A2 — ablation: sensitivity to the worst-case RTD bound.

Crossroads' claim is *insensitivity*: WC-RTD only shifts the execution
time ``TE``, not the buffer, so its throughput should barely move as
the delay bound grows.  VT-IM pays ``v_max * WC-RTD`` of extra buffer,
so its throughput should degrade.
"""

import pytest

from conftest import N_CARS, banner
from repro.analysis import render_table
from repro.core.base import IMConfig
from repro.sim import WorldConfig, flow_arrivals, run_scenario

RTDS = (0.05, 0.15, 0.30)
#: Moderate flow: Crossroads vehicles mostly keep rolling, so the
#: ablation isolates the *buffer* cost of the delay bound (at heavy
#: saturation both policies also pay WC-RTD as per-stop latency).
FLOW = 0.3
SEEDS = (7, 17)


def run_policy(policy: str, wc_rtd: float) -> float:
    """Mean throughput over noise seeds (single runs are too noisy for
    a sensitivity ablation)."""
    values = []
    for seed in SEEDS:
        arrivals = flow_arrivals(FLOW, N_CARS, seed)
        config = WorldConfig(im=IMConfig(wc_rtd=wc_rtd))
        result = run_scenario(policy, arrivals, config=config, seed=seed)
        assert result.collisions == 0
        values.append(result.throughput)
    return sum(values) / len(values)


def campaign():
    return {
        (policy, rtd): run_policy(policy, rtd)
        for policy in ("vt-im", "crossroads")
        for rtd in RTDS
    }


def test_ablation_wc_rtd(benchmark):
    results = benchmark.pedantic(campaign, rounds=1, iterations=1)

    rows = []
    for rtd in RTDS:
        rows.append([
            f"{rtd * 1000:.0f} ms",
            results[("vt-im", rtd)],
            results[("crossroads", rtd)],
        ])
    print(banner(f"Ablation - WC-RTD sensitivity (flow {FLOW}, "
                 f"mean over {len(SEEDS)} seeds)"))
    print(render_table(
        ["WC-RTD", "VT-IM throughput", "Crossroads throughput"], rows, precision=3
    ))

    vt_low = results[("vt-im", RTDS[0])]
    vt_high = results[("vt-im", RTDS[-1])]
    cr_low = results[("crossroads", RTDS[0])]
    cr_high = results[("crossroads", RTDS[-1])]

    vt_drop = 1.0 - vt_high / vt_low
    cr_drop = 1.0 - cr_high / cr_low
    print(f"\nthroughput drop 50->300 ms RTD: VT-IM {vt_drop * 100:.0f}%, "
          f"Crossroads {cr_drop * 100:.0f}%")

    # The delay bound must cost VT-IM real throughput while Crossroads
    # stays within run-to-run noise of flat.
    assert vt_drop > 0.08, "VT-IM must degrade with WC-RTD"
    assert vt_drop > cr_drop, (
        "Crossroads must be less RTD-sensitive than VT-IM"
    )
    assert abs(cr_drop) < vt_drop + 0.10

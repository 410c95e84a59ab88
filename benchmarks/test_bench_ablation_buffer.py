"""A1 — ablation: what does buffer size alone cost?

DESIGN.md calls out the paper's central causal claim: the RTD buffer —
not anything else about the VT protocol — is what destroys VT-IM's
throughput.  This ablation runs *Crossroads* (identical protocol,
scheduler and traffic) with an artificially inflated base buffer from
the sensing value (78 mm) up to the full VT-IM value (528 mm) and
watches throughput fall.
"""

import pytest

from conftest import N_CARS, banner
from repro.analysis import render_table
from repro.core.base import IMConfig
from repro.sim import WorldConfig, flow_arrivals, run_scenario

BUFFERS = (0.078, 0.228, 0.378, 0.528)
FLOW = 0.6


def run_with_buffer(buffer: float):
    arrivals = flow_arrivals(FLOW, N_CARS, 7)
    config = WorldConfig(im=IMConfig(base_buffer=buffer))
    return run_scenario("crossroads", arrivals, config=config, seed=7)


def campaign():
    return {buffer: run_with_buffer(buffer) for buffer in BUFFERS}


def test_ablation_buffer_size(benchmark):
    results = benchmark.pedantic(campaign, rounds=1, iterations=1)

    rows = [
        [f"{buffer * 1000:.0f} mm", r.throughput, r.average_delay, r.collisions]
        for buffer, r in results.items()
    ]
    print(banner(f"Ablation - buffer size vs throughput (flow {FLOW})"))
    print(render_table(
        ["buffer", "throughput", "avg delay (s)", "collisions"], rows, precision=3
    ))

    throughputs = [results[b].throughput for b in BUFFERS]
    # Bigger buffer, lower throughput: the paper's causal story.  Allow
    # small non-monotonic noise between adjacent steps but require a
    # clear end-to-end drop.
    assert throughputs[-1] < 0.8 * throughputs[0]
    # Everyone still crosses safely regardless of buffer size.
    for r in results.values():
        assert r.collisions == 0
        assert r.n_finished == N_CARS

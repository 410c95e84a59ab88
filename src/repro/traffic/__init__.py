"""Traffic generation: Poisson flows and the 10 scale-model scenarios.

The Matlab evaluation (Fig 7.2) sweeps Poisson input flows of
0.05-1.25 cars/lane/second routing 160 cars; the scale-model
evaluation (Fig 7.1) runs 10 five-vehicle scenarios where Scenario 1
is the engineered worst case (simultaneous arrivals on all approaches)
and Scenario 10 the engineered best case (arrivals so sparse that the
buffers never interact).
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.traffic.generator": ("Arrival", "PoissonTraffic", "TurnMix"),
    "repro.traffic.scenarios": ("Scenario", "scale_model_scenarios"),
})

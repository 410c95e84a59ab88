"""Sensing, actuation error and safety-buffer estimation (paper Ch 3).

The paper sizes the longitudinal safety buffer empirically: run the
hold / accelerate / hold velocity profile of Fig 3.1 on the real car 20
times, measure the worst final-position error ``Elong`` (+-75 mm), add
the time-synchronisation contribution (1 ms @ 3 m/s = 3 mm) for a total
of +-78 mm.  VT-IM must *additionally* cover the worst-case round-trip
delay (150 ms @ 3 m/s = 0.45 m); Crossroads does not.

This package provides the sensor noise models (encoder, GPS, IMU), a
noisy longitudinal plant (actuation lag + process noise + quantised
encoder), the Fig 3.1 experiment as a reusable procedure, and the
buffer calculator that turns the measured errors into per-policy
buffer sizes.
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.sensors.buffer": ("BufferBreakdown", "SafetyBufferCalculator"),
    "repro.sensors.error_experiment": (
        "ErrorExperimentConfig", "ErrorExperimentResult", "TrialResult",
        "run_error_experiment", "worst_case_elong",
    ),
    "repro.sensors.models": (
        "EncoderModel", "GpsModel", "ImuModel", "NormalStream",
    ),
    "repro.sensors.plant": ("LongitudinalPlant", "PlantConfig"),
})

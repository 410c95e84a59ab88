"""The Fig 3.1 safety-buffer estimation experiment.

Procedure (Ch 3.1): start at velocity ``v0``, hold until ``T1``,
accelerate (or decelerate) to ``v1`` by ``T2``, hold until ``T3``.
Compare the final position against the *ideal* trajectory the IM would
predict; the difference is the longitudinal error ``Elong``.  Repeat 20
times; the worst-case over the two extreme profiles (0.1 -> 3.0 m/s and
3.0 -> 0.1 m/s) bounds the buffer.  The paper measures +-75 mm.

:func:`run_error_experiment` executes the procedure on a
:class:`~repro.sensors.plant.LongitudinalPlant`; the defaults are tuned
so the simulated worst case lands in the testbed's measured range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.sensors.models import NormalStream, normal_stream
from repro.sensors.plant import LongitudinalPlant, PlantConfig

__all__ = [
    "ErrorExperimentConfig",
    "ErrorExperimentResult",
    "TrialResult",
    "run_error_experiment",
    "worst_case_elong",
]


@dataclass
class ErrorExperimentConfig:
    """Parameters of one hold/ramp/hold profile run."""

    v0: float = 0.1
    v1: float = 3.0
    #: Duration of the initial hold phase (T1 - T0), seconds.
    hold1: float = 1.0
    #: Duration of the final hold phase (T3 - T2), seconds.
    hold2: float = 1.0
    #: Ramp acceleration magnitude used for the ideal trajectory.
    ramp_accel: float = 3.0
    dt: float = 0.01
    trials: int = 20
    plant: PlantConfig = field(default_factory=PlantConfig)

    def __post_init__(self):
        if self.v0 < 0 or self.v1 < 0:
            raise ValueError("velocities must be non-negative")
        if self.hold1 <= 0 or self.hold2 <= 0:
            raise ValueError("hold phases must be positive")
        if self.ramp_accel <= 0:
            raise ValueError("ramp_accel must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @property
    def ramp_duration(self) -> float:
        """Ideal ramp time (T2 - T1)."""
        return abs(self.v1 - self.v0) / self.ramp_accel

    @property
    def total_duration(self) -> float:
        """Ideal total time (T3 - T0)."""
        return self.hold1 + self.ramp_duration + self.hold2

    def ideal_final_position(self) -> float:
        """Position P3 the IM's model predicts at T3."""
        ramp_dist = 0.5 * (self.v0 + self.v1) * self.ramp_duration
        return self.v0 * self.hold1 + ramp_dist + self.v1 * self.hold2

    def command_at(self, t: float) -> float:
        """Commanded velocity at experiment time ``t``.

        The command ramps linearly during the acceleration phase — this
        is the trajectory the vehicle's speed loop is asked to track.
        """
        if t < self.hold1:
            return self.v0
        ramp_end = self.hold1 + self.ramp_duration
        if t < ramp_end:
            frac = (t - self.hold1) / self.ramp_duration
            return self.v0 + frac * (self.v1 - self.v0)
        return self.v1


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial."""

    elong: float
    final_velocity: float
    final_position: float
    ideal_position: float


@dataclass
class ErrorExperimentResult:
    """Aggregate over all trials of one profile."""

    config: ErrorExperimentConfig
    trials: List[TrialResult]

    @property
    def elongs(self) -> np.ndarray:
        """Per-trial longitudinal errors."""
        return np.array([t.elong for t in self.trials])

    @property
    def max_abs_elong(self) -> float:
        """Worst |Elong| over the trials (the buffer candidate)."""
        return float(np.max(np.abs(self.elongs)))

    @property
    def mean_elong(self) -> float:
        return float(np.mean(self.elongs))

    @property
    def std_elong(self) -> float:
        return float(np.std(self.elongs))


def run_error_experiment(
    config: ErrorExperimentConfig,
    rng: Union[np.random.Generator, NormalStream, None] = None,
) -> ErrorExperimentResult:
    """Run the Fig 3.1 procedure ``config.trials`` times.

    Every trial's plant draws from one stream over ``rng`` (pass a
    stream to continue one across calls), so the trials consume the
    generator's normals in order, as if each drew from it directly.
    """
    rng = normal_stream(rng)
    ideal = config.ideal_final_position()
    results = []
    for _ in range(config.trials):
        plant = LongitudinalPlant(config.plant, velocity=config.v0, rng=rng)
        steps = int(round(config.total_duration / config.dt))
        for k in range(steps):
            t = k * config.dt
            plant.step(config.command_at(t), config.dt)
        results.append(
            TrialResult(
                elong=ideal - plant.position,
                final_velocity=plant.velocity,
                final_position=plant.position,
                ideal_position=ideal,
            )
        )
    return ErrorExperimentResult(config=config, trials=results)


def worst_case_elong(
    plant: Optional[PlantConfig] = None,
    trials: int = 20,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, ErrorExperimentResult, ErrorExperimentResult]:
    """Worst |Elong| over the paper's two extreme profiles.

    Runs 0.1 -> 3.0 m/s (worst positive error) and 3.0 -> 0.1 m/s
    (worst negative error) and returns the outer bound plus both raw
    results.
    """
    rng = normal_stream(rng)
    plant = plant if plant is not None else PlantConfig()
    up = run_error_experiment(
        ErrorExperimentConfig(v0=0.1, v1=3.0, trials=trials, plant=plant), rng
    )
    down = run_error_experiment(
        ErrorExperimentConfig(v0=3.0, v1=0.1, trials=trials, plant=plant), rng
    )
    bound = max(up.max_abs_elong, down.max_abs_elong)
    return bound, up, down

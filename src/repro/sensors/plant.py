"""Noisy longitudinal plant: what the vehicle's speed loop actually does.

The IM's world model assumes commanded velocity changes happen at
exactly the specified acceleration.  The physical car differs: motor
response is first-order, the controller tracks with finite gain, and
the encoder it closes the loop on is quantised and slippy.  The gap
between the two is precisely the control/sensing error of Fig 3.1 that
the safety buffer has to absorb.

:class:`LongitudinalPlant` integrates::

    v' = clamp((v_cmd - v) / tau, -d_max, a_max) + process noise

with ``v_cmd`` supplied by the caller each ``dt`` step.  It also exposes
the encoder's noisy view of the state, which is what the vehicle
*reports to the IM* as ``VC``/``DT``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.sensors.models import EncoderModel, NormalStream, normal_stream

__all__ = ["LongitudinalPlant", "PlantConfig"]

_INF = float("inf")


@dataclass
class PlantConfig:
    """Physical parameters of the longitudinal plant.

    Defaults match a Traxxas Slash class RC car at testbed limits
    (3 m/s top speed).
    """

    a_max: float = 3.0
    d_max: float = 4.0
    v_max: float = 3.0
    #: Closed-loop velocity-response time constant, seconds.  A tuned
    #: 50 Hz speed loop with feedforward responds within ~25 ms; the
    #: residual lag times the worst ramp (0.1 -> 3.0 m/s) reproduces the
    #: testbed's ~75 mm worst-case Elong.
    tau: float = 0.025
    #: Acceleration process-noise standard deviation, m/s^2.
    accel_noise_std: float = 0.10
    encoder: EncoderModel = field(default_factory=EncoderModel)

    def __post_init__(self):
        if self.a_max <= 0 or self.d_max <= 0 or self.v_max <= 0:
            raise ValueError("a_max, d_max and v_max must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.accel_noise_std < 0:
            raise ValueError("accel_noise_std must be non-negative")


class LongitudinalPlant:
    """Stateful 1-D vehicle plant with noisy actuation and sensing.

    Parameters
    ----------
    config:
        Plant parameters.
    position, velocity:
        Initial true state.
    rng:
        Random generator driving actuation and encoder noise, or a
        :class:`~repro.sensors.models.NormalStream` shared with other
        plants fed from one generator.  A generator gets a stream of
        its own, drawn lazily, so building a plant draws nothing.
    ideal:
        When True, disables all noise and makes the response
        instantaneous-slew (``tau`` ignored, ramp at exactly the
        acceleration limits) — the IM's idealised world model.  Used to
        compute the *expected* trajectory of the Fig 3.1 experiment.
    """

    def __init__(
        self,
        config: PlantConfig,
        position: float = 0.0,
        velocity: float = 0.0,
        rng: Union[np.random.Generator, NormalStream, None] = None,
        ideal: bool = False,
    ):
        if velocity < 0:
            raise ValueError("velocity must be non-negative")
        self.config = config
        self.position = float(position)
        self.velocity = float(velocity)
        #: The plant's noise: actuation and encoder draws, in tick order.
        self.noise = normal_stream(rng)
        self.rng = self.noise.rng
        self.ideal = ideal
        self._measured_position = self.position
        self._odometry_error_bound = 0.0
        self.time = 0.0

    def step(self, v_cmd: float, dt: float) -> None:
        """Advance the plant ``dt`` seconds tracking ``v_cmd``.

        A plant at rest (velocity ``±0.0``) under a zero command takes a
        short branch that does exactly what the general path does
        there: the brake hold (or, for an ideal plant, the slew) pins
        the velocity at ``+0.0``, both position increments are zero and
        the encoder reads 0.0, so what is left is ``time += dt`` and the
        encoder's one normal draw (none for an ideal plant).  Queued and
        held vehicles spend most of their control periods there.
        """
        if not 0.0 < dt < _INF:
            raise ValueError("dt must be positive and finite")
        velocity = self.velocity
        ideal = self.ideal
        if velocity == 0.0 and v_cmd == 0.0:
            if not ideal:
                self.config.encoder.measure(0.0, self.noise)
            # ``+= 0.0`` turns a -0.0 into +0.0, as the general path's
            # zero increments do.
            self.position += 0.0
            self.velocity = 0.0
            self.time += dt
            self._measured_position += 0.0
            return
        cfg = self.config
        v_max = cfg.v_max
        # Scalar clamps, in np.clip's own order: min(max(x, lo), hi)
        # returns np.clip's bits for signed zeros and NaN as well, at a
        # tenth of the cost of a numpy call on a Python float.
        v_cmd = float(min(max(v_cmd, 0.0), v_max))
        if ideal:
            accel = min(max((v_cmd - velocity) / dt, -cfg.d_max), cfg.a_max)
        elif v_cmd < 0.01 and velocity < 0.05:
            # Brake hold: a commanded stop at near-rest pins the wheels.
            # Without this, clipping negative velocities at zero turns
            # the actuation noise into a one-directional random walk
            # that creeps a "stopped" vehicle over the line.
            accel = -velocity / dt
        else:
            accel = min(max((v_cmd - velocity) / cfg.tau, -cfg.d_max), cfg.a_max)
            accel += self.noise.normal(0.0, cfg.accel_noise_std)
        new_v = float(min(max(velocity + accel * dt, 0.0), v_max))
        # Trapezoidal position update.
        self.position += 0.5 * (velocity + new_v) * dt
        self.velocity = new_v
        self.time += dt
        # Odometry integrates the *measured* velocity (what
        # measured_velocity() returns, without the extra call).
        measured = new_v if ideal else cfg.encoder.measure(new_v, self.noise)
        self._measured_position += measured * dt
        if not ideal and new_v > 0.0:
            # Each moving sample can carry up to half an encoder count
            # of quantisation bias (a speed sitting on a count boundary
            # rounds the same way every window), so the odometry error
            # grows linearly with time spent in motion.  A stationary
            # wheel reads exactly zero, accruing nothing.
            self._odometry_error_bound += (
                0.5 * cfg.encoder.velocity_resolution * dt
            )

    def measured_velocity(self) -> float:
        """Encoder's view of the current velocity."""
        if self.ideal:
            return self.velocity
        return self.config.encoder.measure(self.velocity, self.noise)

    def measured_position(self) -> float:
        """Odometry position (integrated measured velocity)."""
        return self._measured_position

    @property
    def odometry_error_bound(self) -> float:
        """Worst-case |true - measured| position drift, metres.

        Quantisation-bias bound accrued over time in motion; safety
        clauses comparing odometry against a fixed line must brake this
        much earlier to guarantee the true bumper stays short of it.
        """
        return self._odometry_error_bound

    def reset(self, position: float = 0.0, velocity: float = 0.0) -> None:
        """Reset the true and measured state."""
        if velocity < 0:
            raise ValueError("velocity must be non-negative")
        self.position = float(position)
        self.velocity = float(velocity)
        self._measured_position = float(position)
        self._odometry_error_bound = 0.0
        self.time = 0.0

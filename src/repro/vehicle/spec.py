"""Static vehicle data: the ``VehicleInfo`` packet of Ch 4.

The paper's request packet carries "maximum acceleration, maximum
deceleration, max speed, length, width, lane of entry, lane of exit,
direction of entry, direction of exit, and safety buffer size".  Here
that is a :class:`VehicleSpec` (physical constants) plus the
:class:`~repro.geometry.Movement` and the buffer, wrapped together as
:class:`VehicleInfo`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.geometry.layout import Movement

__all__ = ["VehicleInfo", "VehicleSpec"]


@dataclass(frozen=True)
class VehicleSpec:
    """Physical constants of one vehicle.

    Defaults are the testbed's 1/10-scale Traxxas Slash: 0.568 m long,
    0.296 m wide, limited to 3 m/s.
    """

    length: float = 0.568
    width: float = 0.296
    a_max: float = 3.0
    d_max: float = 4.0
    v_max: float = 3.0
    wheelbase: float = 0.335

    def __post_init__(self):
        constants = (
            self.length, self.width, self.a_max, self.d_max, self.v_max,
            self.wheelbase,
        )
        # NaN passes every ``<= 0`` test below, so check finiteness first.
        if not all(math.isfinite(value) for value in constants):
            raise ValueError("vehicle constants must be finite")
        if self.length <= 0 or self.width <= 0:
            raise ValueError("length and width must be positive")
        if self.a_max <= 0 or self.d_max <= 0 or self.v_max <= 0:
            raise ValueError("a_max, d_max and v_max must be positive")
        if not 0 < self.wheelbase <= self.length:
            raise ValueError("wheelbase must be in (0, length]")

    def with_limits(self, **kwargs) -> "VehicleSpec":
        """Copy with some fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class VehicleInfo:
    """The over-the-air ``VehicleInfo`` packet.

    Attributes
    ----------
    vehicle_id:
        Unique id assigned by the spawner.
    spec:
        Physical constants.
    movement:
        Entry approach and turn through the intersection.
    buffer:
        Safety-buffer size the *vehicle* claims (sensing + sync); the
        IM may add policy-specific terms (the VT-IM RTD buffer) on top.
    """

    vehicle_id: int
    spec: VehicleSpec
    movement: Movement
    buffer: float = 0.078

    def __post_init__(self):
        if self.vehicle_id < 0:
            raise ValueError("vehicle_id must be non-negative")
        if not (math.isfinite(self.buffer) and self.buffer >= 0):
            raise ValueError("buffer must be finite and non-negative")

    @property
    def effective_length(self) -> float:
        """Body length plus the buffer ring at both ends."""
        return self.spec.length + 2.0 * self.buffer

    def effective_length_with(self, extra_buffer: float) -> float:
        """Body length plus (buffer + extra) at both ends."""
        if extra_buffer < 0:
            raise ValueError("extra_buffer must be non-negative")
        return self.spec.length + 2.0 * (self.buffer + extra_buffer)

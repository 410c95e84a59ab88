"""Random traffic generation.

:class:`PoissonTraffic` draws per-approach Poisson arrival processes at
a given flow (cars/lane/second), assigns each vehicle a turn from a
:class:`TurnMix` and an entry speed, and enforces a same-lane minimum
headway so vehicles do not spawn inside each other (a physical
transmission line cannot be crossed by two cars at once either).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.geometry.layout import Approach, Movement, Turn
from repro.vehicle.spec import VehicleSpec

__all__ = [
    "Arrival",
    "PoissonTraffic",
    "TurnMix",
    "check_flow_rate",
    "check_n_cars",
]


def check_flow_rate(flow_rate: float) -> None:
    """Raise ``ValueError`` unless ``flow_rate`` (cars/lane/s) is positive."""
    if flow_rate <= 0:
        raise ValueError("flow_rate must be positive")


def check_n_cars(n_cars: int) -> None:
    """Raise ``ValueError`` unless at least one car is asked for."""
    if n_cars < 1:
        raise ValueError("n_cars must be >= 1")


@dataclass(frozen=True)
class Arrival:
    """One vehicle's appearance at the transmission line."""

    time: float
    movement: Movement
    speed: float
    spec: VehicleSpec = field(default_factory=VehicleSpec)

    def __post_init__(self):
        if self.time < 0:
            raise ValueError("time must be non-negative")
        if not 0 < self.speed <= self.spec.v_max + 1e-9:
            raise ValueError("speed must be in (0, v_max]")


@dataclass(frozen=True)
class TurnMix:
    """Probability of each turn (must sum to 1)."""

    left: float = 0.25
    straight: float = 0.50
    right: float = 0.25

    def __post_init__(self):
        if min(self.left, self.straight, self.right) < 0:
            raise ValueError("probabilities must be non-negative")
        if abs(self.left + self.straight + self.right - 1.0) > 1e-9:
            raise ValueError("turn probabilities must sum to 1")

    def draw(self, rng: np.random.Generator) -> Turn:
        """Sample one turn."""
        r = rng.random()
        if r < self.left:
            return Turn.LEFT
        if r < self.left + self.straight:
            return Turn.STRAIGHT
        return Turn.RIGHT


class PoissonTraffic:
    """Poisson arrivals on every approach.

    Parameters
    ----------
    flow_rate:
        Cars per lane per second (the Fig 7.2 x-axis).
    turn_mix:
        Turn distribution.
    speed_range:
        Uniform entry-speed range, m/s.
    min_headway:
        Minimum same-lane arrival separation, seconds.
    spec:
        Vehicle spec given to every car.
    seed:
        Seed for reproducible workloads.
    """

    def __init__(
        self,
        flow_rate: float,
        turn_mix: Optional[TurnMix] = None,
        speed_range: Sequence[float] = (2.0, 3.0),
        min_headway: float = 0.5,
        spec: Optional[VehicleSpec] = None,
        seed: Optional[int] = None,
    ):
        check_flow_rate(flow_rate)
        if len(speed_range) != 2 or not 0 < speed_range[0] <= speed_range[1]:
            raise ValueError("speed_range must be (low, high) with 0 < low <= high")
        if min_headway < 0:
            raise ValueError("min_headway must be non-negative")
        self.flow_rate = flow_rate
        self.turn_mix = turn_mix if turn_mix is not None else TurnMix()
        self.speed_range = tuple(speed_range)
        self.min_headway = min_headway
        self.spec = spec if spec is not None else VehicleSpec()
        self.rng = np.random.default_rng(seed)

    def generate(self, n_cars: int) -> List[Arrival]:
        """Generate ``n_cars`` arrivals across the four approaches.

        Inter-arrival gaps per lane are exponential with the per-lane
        rate, floored at ``min_headway``; the global list is merged and
        time-sorted.
        """
        check_n_cars(n_cars)
        # Each lane is an independent Poisson process at the per-lane
        # rate; generating n_cars per lane guarantees the merged stream
        # has at least n_cars, the earliest of which are kept.
        candidates: List[Arrival] = []
        for approach in Approach:
            t = 0.0
            for _ in range(n_cars):
                gap = self.rng.exponential(1.0 / self.flow_rate)
                t += max(float(gap), self.min_headway)
                turn = self.turn_mix.draw(self.rng)
                low, high = self.speed_range
                v_cap = min(high, self.spec.v_max)
                speed = float(self.rng.uniform(low, v_cap)) if v_cap > low else low
                candidates.append(
                    Arrival(
                        time=t,
                        movement=Movement(approach, turn),
                        speed=speed,
                        spec=self.spec,
                    )
                )
        candidates.sort(key=lambda a: a.time)
        return candidates[:n_cars]

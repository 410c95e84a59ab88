"""Boundary traffic for the corridor network.

:class:`GridPoissonTraffic` is the grid analogue of
:class:`~repro.traffic.PoissonTraffic`: independent Poisson arrival
processes on every **boundary** approach lane of every node (interior
approaches are fed by hand-offs, not spawns), each arrival assigned a
turn, an entry speed, and then a multi-hop :class:`~repro.grid.routing.
RoutePlan` drawn through the same seeded RNG.

Draw-order contract
-------------------
For a single isolated node every approach is a boundary approach and
route extension consumes zero draws, so the generator's RNG sequence —
per-lane exponential gap, turn, speed, repeated, then merged and
truncated — is **exactly** :meth:`PoissonTraffic.generate`'s.  The
equivalence test pins ``GridPoissonTraffic`` on a 1-node spec against
``PoissonTraffic`` arrival-by-arrival; the 1-node
:class:`~repro.grid.world.GridWorld` golden test builds on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.geometry.layout import Approach, Movement
from repro.grid.routing import RouteMix, RoutePlan, Router
from repro.grid.spec import GridSpec
from repro.traffic.generator import Arrival, check_flow_rate, check_n_cars
from repro.vehicle.spec import VehicleSpec

__all__ = ["GridArrival", "GridPoissonTraffic"]


@dataclass(frozen=True)
class GridArrival:
    """One vehicle's appearance at a boundary transmission line.

    Wraps a plain :class:`~repro.traffic.Arrival` (time, first-hop
    movement, entry speed, spec) with the node it spawns at and the
    route it will follow.
    """

    node: str
    arrival: Arrival
    route: RoutePlan

    def __post_init__(self):
        if self.route.entry_node != self.node:
            raise ValueError(
                f"route enters at {self.route.entry_node!r}, "
                f"arrival spawns at {self.node!r}"
            )
        if self.route.entry_movement != self.arrival.movement:
            raise ValueError(
                f"route's first movement {self.route.entry_movement.key!r} "
                f"differs from the arrival's {self.arrival.movement.key!r}"
            )

    @property
    def time(self) -> float:
        return self.arrival.time


class GridPoissonTraffic:
    """Poisson boundary arrivals + routed trips over a grid.

    Parameters mirror :class:`~repro.traffic.PoissonTraffic` with the
    grid spec and a :class:`~repro.grid.routing.RouteMix` added.
    """

    def __init__(
        self,
        spec: GridSpec,
        flow_rate: float,
        route_mix: Optional[RouteMix] = None,
        speed_range: Sequence[float] = (2.0, 3.0),
        min_headway: float = 0.5,
        vehicle_spec: Optional[VehicleSpec] = None,
        seed: Optional[int] = None,
    ):
        check_flow_rate(flow_rate)
        if len(speed_range) != 2 or not 0 < speed_range[0] <= speed_range[1]:
            raise ValueError("speed_range must be (low, high) with 0 < low <= high")
        if min_headway < 0:
            raise ValueError("min_headway must be non-negative")
        self.spec = spec
        self.router = Router(spec)
        self.flow_rate = flow_rate
        self.route_mix = route_mix if route_mix is not None else RouteMix()
        self.speed_range = tuple(speed_range)
        self.min_headway = min_headway
        self.vehicle_spec = (
            vehicle_spec if vehicle_spec is not None else VehicleSpec()
        )
        self.rng = np.random.default_rng(seed)

    def generate(self, n_cars: int) -> List[GridArrival]:
        """``n_cars`` routed arrivals across all boundary lanes.

        Pass 1 replays :meth:`PoissonTraffic.generate` per boundary
        lane (nodes in spec order, approaches in compass order): gaps
        exponential at the per-lane rate floored at ``min_headway``,
        then a turn and a speed per candidate; the merged stream is
        time-sorted (stable, so simultaneous arrivals keep generation
        order) and truncated to ``n_cars``.  Pass 2 extends each kept
        arrival into a route, in arrival order.
        """
        check_n_cars(n_cars)
        mix = self.route_mix
        candidates: List[tuple] = []
        for node in self.spec.nodes:
            boundary = set(self.spec.boundary_entries(node.name))
            for approach in Approach:
                if approach not in boundary:
                    continue  # interior lane: fed by hand-offs
                t = 0.0
                for _ in range(n_cars):
                    gap = self.rng.exponential(1.0 / self.flow_rate)
                    t += max(float(gap), self.min_headway)
                    turn = mix.turns.draw(self.rng)
                    low, high = self.speed_range
                    v_cap = min(high, self.vehicle_spec.v_max)
                    speed = (
                        float(self.rng.uniform(low, v_cap))
                        if v_cap > low
                        else low
                    )
                    candidates.append(
                        (t, node.name, Movement(approach, turn), speed)
                    )
        candidates.sort(key=lambda c: c[0])
        kept = candidates[:n_cars]
        out: List[GridArrival] = []
        for t, node_name, movement, speed in kept:
            route = self.router.random_route(node_name, movement, mix, self.rng)
            out.append(
                GridArrival(
                    node=node_name,
                    arrival=Arrival(
                        time=t,
                        movement=movement,
                        speed=speed,
                        spec=self.vehicle_spec,
                    ),
                    route=route,
                )
            )
        return out

"""Routes over the corridor network.

A :class:`RoutePlan` is the multi-hop generalisation of a single
:class:`~repro.geometry.Movement`: an ordered list of :class:`Hop` s
(node + movement through that node's box) glued together by the
:class:`~repro.grid.spec.LinkSpec` s the vehicle travels between them.
The :class:`Router` builds them with :meth:`Router.random_route`:
extend a first movement hop by hop, drawing each subsequent turn from
a seeded :class:`RouteMix` (mirroring how
:class:`~repro.traffic.TurnMix` assigns single-intersection turns)
until the vehicle exits through a boundary arm, declines to continue,
or hits ``max_hops``.

Every hop-to-hop transition uses the geometry kernel:
``exit arm = exit_approach(entry, turn)`` and next entry approach =
``LinkSpec.entry_approach`` (compass ``opposite`` by default).

Determinism: :meth:`Router.random_route` draws **zero** RNG values for
a route that ends at its first hop (a boundary exit, or a single-node
grid), which is what keeps a 1-node :class:`~repro.grid.world.GridWorld`
workload bit-identical to the plain :class:`~repro.sim.world.World`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.geometry.layout import Approach, Movement, exit_approach
from repro.grid.spec import GridSpec, LinkSpec
from repro.traffic.generator import TurnMix

__all__ = ["Hop", "RouteMix", "RoutePlan", "Router"]


@dataclass(frozen=True)
class Hop:
    """One intersection traversal of a route."""

    node: str
    movement: Movement

    @property
    def key(self) -> str:
        """Stable identifier, e.g. ``"N0/S-straight"``."""
        return f"{self.node}/{self.movement.key}"

    @property
    def exit_arm(self) -> Approach:
        """Compass arm this hop's movement exits through."""
        return exit_approach(self.movement.entry, self.movement.turn)


@dataclass(frozen=True)
class RoutePlan:
    """A validated multi-hop route: hops + the links between them.

    ``links[i]`` is the road segment travelled between ``hops[i]`` and
    ``hops[i + 1]``; construction checks the chain is geometrically
    consistent (each link leaves its hop's exit arm and feeds the next
    hop's entry approach).
    """

    hops: Tuple[Hop, ...]
    links: Tuple[LinkSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "hops", tuple(self.hops))
        object.__setattr__(self, "links", tuple(self.links))
        if not self.hops:
            raise ValueError("a route needs at least one hop")
        if len(self.links) != len(self.hops) - 1:
            raise ValueError(
                f"route with {len(self.hops)} hops needs "
                f"{len(self.hops) - 1} links (got {len(self.links)})"
            )
        for i, link in enumerate(self.links):
            hop, nxt = self.hops[i], self.hops[i + 1]
            if link.src != hop.node:
                raise ValueError(f"link {link.key} does not leave hop {hop.key}")
            if link.exit_arm is not hop.exit_arm:
                raise ValueError(
                    f"hop {hop.key} exits arm {hop.exit_arm.value!r} but link "
                    f"{link.key} leaves arm {link.src_exit!r}"
                )
            if link.dst != nxt.node:
                raise ValueError(f"link {link.key} does not reach hop {nxt.key}")
            if link.entry_approach is not nxt.movement.entry:
                raise ValueError(
                    f"link {link.key} feeds approach "
                    f"{link.entry_approach.value!r} but hop {nxt.key} enters "
                    f"from {nxt.movement.entry.value!r}"
                )

    # -- queries -----------------------------------------------------------
    @property
    def n_hops(self) -> int:
        return len(self.hops)

    @property
    def entry_node(self) -> str:
        return self.hops[0].node

    @property
    def entry_movement(self) -> Movement:
        return self.hops[0].movement

    @property
    def exit_node(self) -> str:
        return self.hops[-1].node

    @property
    def length(self) -> float:
        """Total link distance between hops, metres (box transits and
        approach runs are owned by the per-node geometry)."""
        return float(sum(link.length for link in self.links))

    @property
    def key(self) -> str:
        """Stable identifier, e.g. ``"N0/W-straight>N1/W-left"``."""
        return ">".join(hop.key for hop in self.hops)

    def __len__(self) -> int:
        return len(self.hops)


@dataclass(frozen=True)
class RouteMix:
    """Stochastic route-extension policy (the grid's ``TurnMix``).

    Attributes
    ----------
    turns:
        Turn distribution drawn at every hop *after* the first (the
        first hop's turn comes from the arrival workload, exactly as in
        the single-intersection world).
    continue_probability:
        Probability of continuing onto an available outgoing link
        instead of despawning at the current node; ``1.0`` (the
        default) means "drive until a boundary arm" and — importantly —
        consumes **no** RNG draw for the decision, preserving
        single-node bit-identity.
    max_hops:
        Hard cap on route length (guards cyclic topologies).
    """

    turns: TurnMix = field(default_factory=TurnMix)
    continue_probability: float = 1.0
    max_hops: int = 8

    def __post_init__(self):
        if not 0.0 <= self.continue_probability <= 1.0:
            raise ValueError("continue_probability must be in [0, 1]")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")


class Router:
    """Route construction over one :class:`~repro.grid.spec.GridSpec`."""

    def __init__(self, spec: GridSpec):
        self.spec = spec

    def random_route(
        self,
        entry_node: str,
        first_movement: Movement,
        mix: RouteMix,
        rng: np.random.Generator,
    ) -> RoutePlan:
        """Extend ``first_movement`` hop by hop under ``mix``.

        The walk stops at a boundary arm, a declined continuation, or
        ``mix.max_hops``.  A route that ends at its first hop consumes
        zero draws from ``rng``.
        """
        hops = [Hop(entry_node, first_movement)]
        links: List[LinkSpec] = []
        while len(hops) < mix.max_hops:
            link = self.spec.out_link(hops[-1].node, hops[-1].exit_arm)
            if link is None:
                break  # boundary arm: the vehicle leaves the network
            if mix.continue_probability < 1.0 and (
                rng.random() >= mix.continue_probability
            ):
                break  # this trip ends at the current node
            turn = mix.turns.draw(rng)
            hops.append(Hop(link.dst, Movement(link.entry_approach, turn)))
            links.append(link)
        return RoutePlan(tuple(hops), tuple(links))

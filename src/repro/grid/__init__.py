"""Multi-intersection corridor networks (the grid layer).

One :class:`~repro.sim.world.World` is a single four-way intersection;
this package lifts it to a *routed directed graph* of intersections
sharing one DES environment and one wireless medium:

* :mod:`repro.grid.spec` — the pure-data network description
  (:class:`GridSpec` / :class:`NodeSpec` / :class:`LinkSpec`, JSON
  round-trippable, plus the :func:`corridor_spec` factory);
* :mod:`repro.grid.routing` — :class:`RoutePlan` construction: explicit
  turn walks, seeded :class:`RouteMix` extension and static shortest
  paths over ``(node, entry approach)`` states;
* :mod:`repro.grid.traffic` — Poisson boundary workloads
  (:class:`GridPoissonTraffic` -> :class:`GridArrival`), draw-order
  compatible with :class:`~repro.traffic.PoissonTraffic` on one node;
* :mod:`repro.grid.world` — :class:`GridWorld`: one IM per node (mixed
  policies allowed), per-node safety monitors and watchdogs, and the
  link hand-off that re-spawns an exiting vehicle at the next node with
  its radio address, drifting clock and record lineage intact;
* :mod:`repro.grid.runner` — :func:`run_grid` one-liners and
  :func:`sweep_grid` parallel replication.

A 1-node grid is bit-identical to the plain single-intersection world
(the golden equivalence suite pins it), so corridor results extend —
never fork — the paper-reproduction metrics.
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.grid.routing": ("Hop", "RouteMix", "RoutePlan", "Router"),
    "repro.grid.runner": ("run_grid", "sweep_grid"),
    "repro.grid.spec": ("GridSpec", "LinkSpec", "NodeSpec", "corridor_spec"),
    "repro.grid.traffic": ("GridArrival", "GridPoissonTraffic"),
    "repro.grid.world": ("CorridorRecord", "GridResult", "GridWorld"),
})

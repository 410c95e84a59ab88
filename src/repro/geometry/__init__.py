"""Intersection geometry: layout, movement paths, conflicts, tiles.

The evaluation intersection is the paper's four-way, one-lane-per-road
crossing: a 1.2 x 1.2 m box, 0.296 m-wide vehicles, a transmission line
3 m upstream of the stop line.  :class:`IntersectionGeometry` produces
world-frame paths (straight lines and quarter-circle arcs) for all
twelve movements (4 approaches x {left, straight, right}).

Two independent conflict representations are derived from the geometry:

* :class:`ConflictTable` — pairwise path-overlap intervals, the compact
  representation the VT-IM/Crossroads FCFS scheduler uses.
* :class:`TileGrid` — the AIM-style space-time tile discretisation of
  the box, used by the query-based IM's trajectory simulation (this is
  what makes AIM computationally expensive).
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.geometry.collision": ("OrientedRect", "rects_overlap"),
    "repro.geometry.conflicts": ("ConflictInterval", "ConflictTable"),
    "repro.geometry.layout": (
        "Approach", "IntersectionGeometry", "Movement", "Path", "Turn",
        "exit_approach",
    ),
    "repro.geometry.tiles": ("TileFootprint", "TileGrid", "TileReservations"),
})

"""Oriented-rectangle overlap tests for the safety monitor.

The micro-simulator's safety monitor checks, every control period, that
no two vehicles' *sensing-buffered* footprints overlap inside the box —
the ground-truth safety criterion all three policies are judged by.

Rectangles are given as (centre, heading, length, width); the test is
the separating-axis theorem specialised to two boxes (4 candidate
axes).  :func:`beyond_reach` is the cheap pre-test the monitor runs
first: pairs whose bounding circles are apart need no SAT call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "REACH_SLACK",
    "OrientedRect",
    "beyond_reach",
    "bounding_radius",
    "rects_overlap",
]

#: Metres added to two bounding radii before a pair counts as beyond
#: reach.  The separating-axis test's float error at intersection scale
#: is about 1e-16 m, so centres this much farther apart than the radii
#: leave footprints that :func:`rects_overlap` always reports disjoint.
REACH_SLACK = 1e-6


@dataclass(frozen=True)
class OrientedRect:
    """Axis-angle rectangle: centre, heading, full length/width."""

    cx: float
    cy: float
    heading: float
    length: float
    width: float

    def __post_init__(self):
        if self.length <= 0 or self.width <= 0:
            raise ValueError("length and width must be positive")

    def corners(self) -> np.ndarray:
        """The 4 corner points, CCW, shape (4, 2)."""
        c, s = math.cos(self.heading), math.sin(self.heading)
        fwd = np.array([c, s])
        left = np.array([-s, c])
        hl, hw = self.length / 2.0, self.width / 2.0
        centre = np.array([self.cx, self.cy])
        return np.array(
            [
                centre + hl * fwd + hw * left,
                centre - hl * fwd + hw * left,
                centre - hl * fwd - hw * left,
                centre + hl * fwd - hw * left,
            ]
        )

    def inflated(self, margin: float) -> "OrientedRect":
        """Grow both dimensions by ``2*margin`` (a buffer ring)."""
        if margin < 0:
            raise ValueError("margin must be non-negative")
        return OrientedRect(
            self.cx, self.cy, self.heading, self.length + 2 * margin, self.width + 2 * margin
        )

    def inflated_longitudinal(self, margin: float) -> "OrientedRect":
        """Grow only the length by ``2*margin``.

        This is the paper's buffer model: ``Elong`` pads the front and
        rear, while lateral error is assumed absorbed by lane keeping
        (Ch 3.2 "Elat ... can be disregarded").
        """
        if margin < 0:
            raise ValueError("margin must be non-negative")
        return OrientedRect(
            self.cx, self.cy, self.heading, self.length + 2 * margin, self.width
        )

    def axes(self) -> Tuple[np.ndarray, np.ndarray]:
        """The two edge-normal unit axes."""
        c, s = math.cos(self.heading), math.sin(self.heading)
        return (np.array([c, s]), np.array([-s, c]))


def _projection_separates(axis: np.ndarray, ca: np.ndarray, cb: np.ndarray) -> bool:
    pa = ca @ axis
    pb = cb @ axis
    return pa.max() < pb.min() or pb.max() < pa.min()


def rects_overlap(a: OrientedRect, b: OrientedRect) -> bool:
    """True when the rectangles intersect (SAT over 4 axes)."""
    ca, cb = a.corners(), b.corners()
    for axis in (*a.axes(), *b.axes()):
        if _projection_separates(axis, ca, cb):
            return False
    return True


def bounding_radius(length: float, width: float, buffer: float = 0.0) -> float:
    """Radius about the centre that holds a ``length`` x ``width``
    rectangle and its ``inflated_longitudinal(buffer)`` footprint (the
    distance to a corner of the latter)."""
    return math.hypot(length / 2.0 + buffer, width / 2.0)


def beyond_reach(gap: float, radius_a: float, radius_b: float) -> bool:
    """True when centres ``gap`` apart put two footprints out of reach.

    Each footprint lies inside its :func:`bounding_radius` circle, so
    circles more than :data:`REACH_SLACK` apart hold disjoint
    footprints, and :func:`rects_overlap` would say False for them.
    """
    return gap > radius_a + radius_b + REACH_SLACK

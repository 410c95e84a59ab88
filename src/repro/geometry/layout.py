"""Intersection layout and movement paths.

Conventions
-----------
* World frame: the intersection box is an axis-aligned square centred at
  the origin; +x is east, +y is north.
* An :class:`Approach` names the compass direction a vehicle *comes
  from* (a vehicle from ``Approach.SOUTH`` drives northwards).
* Right-hand traffic: the inbound lane centre is offset half a lane
  width to the right of the road centreline.
* A :class:`Movement` is an (approach, turn) pair; its :class:`Path` is
  the lane-centre curve through the box — a straight segment or a
  quarter-circle arc — parameterised by arc length from the entry stop
  line (s = 0) to the exit line (s = path.length).
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "Approach",
    "IntersectionGeometry",
    "Movement",
    "Path",
    "Turn",
    "exit_approach",
]


class Approach(enum.Enum):
    """Compass direction a vehicle arrives *from*."""

    NORTH = "N"
    EAST = "E"
    SOUTH = "S"
    WEST = "W"

    @property
    def heading(self) -> float:
        """Inbound travel heading in radians (0 = east, CCW positive)."""
        return {
            Approach.SOUTH: math.pi / 2,  # driving north
            Approach.WEST: 0.0,  # driving east
            Approach.NORTH: -math.pi / 2,  # driving south
            Approach.EAST: math.pi,  # driving west
        }[self]

    @property
    def inbound_unit(self) -> Tuple[float, float]:
        """Unit vector of inbound travel."""
        h = self.heading
        return (math.cos(h), math.sin(h))

    @property
    def opposite(self) -> "Approach":
        """The arm across the box (N <-> S, E <-> W).

        This is the *hop-transition kernel* of the corridor layer: a
        vehicle exiting one intersection through arm ``X`` travels in
        the direction of ``X`` and therefore arrives at the next
        (compass-aligned) intersection *coming from* ``X.opposite``.
        """
        idx = _ORDER.index(self)
        return _ORDER[(idx + 2) % 4]


class Turn(enum.Enum):
    """Movement type through the intersection."""

    LEFT = "left"
    STRAIGHT = "straight"
    RIGHT = "right"


_ORDER = [Approach.NORTH, Approach.EAST, Approach.SOUTH, Approach.WEST]


def exit_approach(entry: Approach, turn: Turn) -> Approach:
    """Compass arm of the intersection the vehicle exits through.

    A vehicle from the south drives north: straight exits the north
    arm, a right turn exits the east arm, a left turn the west arm.
    """
    idx = _ORDER.index(entry)
    if turn is Turn.STRAIGHT:
        return _ORDER[(idx + 2) % 4]  # opposite arm
    if turn is Turn.RIGHT:
        return _ORDER[(idx - 1) % 4]
    return _ORDER[(idx + 1) % 4]


class Path:
    """Arc-length-parameterised polyline in the world frame."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or len(points) < 2:
            raise ValueError("points must be an (N>=2, 2) array")
        self.points = points
        deltas = np.diff(points, axis=0)
        seg_lengths = np.hypot(deltas[:, 0], deltas[:, 1])
        self.cumlen = np.concatenate([[0.0], np.cumsum(seg_lengths)])
        # Plain-float tables for the scalar lookups below, which the
        # safety monitor makes for every in-box vehicle each sweep.
        self._cum = self.cumlen.tolist()
        self._seg_lengths = seg_lengths.tolist()
        self._points = points.tolist()
        self._deltas = deltas.tolist()

    @property
    def length(self) -> float:
        """Total arc length."""
        return float(self.cumlen[-1])

    def _segment(self, s: float) -> Tuple[float, int]:
        """``s`` clamped to ``[0, length]`` and the index of the segment
        holding it (the last segment for ``s == length``)."""
        cum = self._cum
        # min(max(x, lo), hi) is np.clip bit for bit, signed zero and
        # NaN included; bisect_right is searchsorted(side="right").
        s = min(max(s, 0.0), cum[-1])
        return s, min(max(bisect_right(cum, s) - 1, 0), len(cum) - 2)

    def point_at(self, s: float) -> Tuple[float, float]:
        """World point ``(x, y)`` at arc length ``s`` (clamped to the
        ends).

        Scalar arithmetic with numpy's bits: ``points[i] + frac *
        (points[i + 1] - points[i])`` per coordinate, where the
        difference is the ``np.diff`` table entry.
        """
        s, i = self._segment(s)
        seg = self._seg_lengths[i]
        frac = 0.0 if seg <= 0 else (s - self._cum[i]) / seg
        x, y = self._points[i]
        dx, dy = self._deltas[i]
        return (x + frac * dx, y + frac * dy)

    def heading_at(self, s: float) -> float:
        """Tangent heading at arc length ``s``."""
        dx, dy = self._deltas[self._segment(s)[1]]
        return math.atan2(dy, dx)

    def sample(self, step: float) -> np.ndarray:
        """Points every ``step`` metres of arc length (ends included)."""
        if step <= 0:
            raise ValueError("step must be positive")
        n = max(int(math.ceil(self.length / step)) + 1, 2)
        ss = np.linspace(0.0, self.length, n)
        return np.array([self.point_at(s) for s in ss]), ss


@dataclass(frozen=True)
class Movement:
    """One (entry approach, turn) pair."""

    entry: Approach
    turn: Turn

    @cached_property
    def key(self) -> str:
        """Stable identifier, e.g. ``"S-straight"`` (built once per
        movement; the IM core looks it up on every conflict check)."""
        return f"{self.entry.value}-{self.turn.value}"

    def __str__(self) -> str:
        return self.key


class IntersectionGeometry:
    """Four-way, single-lane-per-direction intersection.

    Parameters (defaults are the paper's 1/10-scale testbed)
    ----------
    box:
        Side length of the square conflict area, metres (1.2).
    lane_width:
        Lane width, metres.  The testbed roads are one lane per
        direction; 0.45 m lanes fit two 0.296 m-wide vehicles side by
        side across the road with margin.
    approach_length:
        Stop line to transmission line distance, metres (3.0).
    """

    def __init__(
        self,
        box: float = 1.2,
        lane_width: float = 0.45,
        approach_length: float = 3.0,
        path_step: float = 0.02,
    ):
        if box <= 0 or lane_width <= 0 or approach_length <= 0:
            raise ValueError("box, lane_width and approach_length must be positive")
        if lane_width > box / 2:
            raise ValueError("lane_width must not exceed half the box")
        self.box = box
        self.lane_width = lane_width
        self.approach_length = approach_length
        self.path_step = path_step
        self._paths: Dict[Movement, Path] = {}
        for approach in Approach:
            for turn in Turn:
                movement = Movement(approach, turn)
                self._paths[movement] = self._build_path(movement)

    # -- frame helpers ------------------------------------------------------
    def _entry_frame(self, approach: Approach) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entry point on the box edge plus (forward, left) unit vectors."""
        half = self.box / 2.0
        off = self.lane_width / 2.0
        fwd = np.array(approach.inbound_unit)
        left = np.array([-fwd[1], fwd[0]])
        # Right-hand traffic: inbound lane centre is offset to the right.
        entry = -half * fwd - off * left
        return entry, fwd, left

    def entry_point(self, approach: Approach) -> np.ndarray:
        """World point where the inbound lane centre meets the box."""
        return self._entry_frame(approach)[0].copy()

    def transmission_point(self, approach: Approach) -> np.ndarray:
        """World point of the transmission line on the inbound lane."""
        entry, fwd, _left = self._entry_frame(approach)
        return entry - self.approach_length * fwd

    # -- path construction ----------------------------------------------------
    def _build_path(self, movement: Movement) -> Path:
        entry, fwd, left = self._entry_frame(movement.entry)
        half = self.box / 2.0
        off = self.lane_width / 2.0
        step = self.path_step

        if movement.turn is Turn.STRAIGHT:
            exit_pt = entry + self.box * fwd
            n = max(int(math.ceil(self.box / step)) + 1, 2)
            ts = np.linspace(0.0, 1.0, n)
            pts = entry[None, :] + ts[:, None] * (exit_pt - entry)[None, :]
            return Path(pts)

        if movement.turn is Turn.RIGHT:
            # Quarter circle, centre on the entry-side right corner.
            radius = half - off
            centre = entry - left * radius
            start_angle = math.atan2(entry[1] - centre[1], entry[0] - centre[0])
            sweep = -math.pi / 2.0  # clockwise for a right turn
        else:  # LEFT
            radius = half + off
            centre = entry + left * radius
            start_angle = math.atan2(entry[1] - centre[1], entry[0] - centre[0])
            sweep = math.pi / 2.0  # counter-clockwise

        arc_len = abs(sweep) * radius
        n = max(int(math.ceil(arc_len / step)) + 1, 2)
        angles = start_angle + np.linspace(0.0, sweep, n)
        pts = centre[None, :] + radius * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1
        )
        return Path(pts)

    # -- queries ---------------------------------------------------------------
    @property
    def movements(self) -> List[Movement]:
        """All twelve movements."""
        return list(self._paths.keys())

    def path(self, movement: Movement) -> Path:
        """The through-box path of ``movement``."""
        return self._paths[movement]

    def crossing_distance(self, movement: Movement) -> float:
        """Arc length of the movement's path through the box."""
        return self._paths[movement].length

    def contains(self, x: float, y: float, margin: float = 0.0) -> bool:
        """True if ``(x, y)`` lies within the box grown by ``margin``."""
        half = self.box / 2.0 + margin
        return abs(x) <= half and abs(y) <= half

    def __repr__(self) -> str:
        return (
            f"IntersectionGeometry(box={self.box}, lane_width={self.lane_width}, "
            f"approach_length={self.approach_length})"
        )

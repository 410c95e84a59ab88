"""Pairwise movement-conflict computation.

Two movements conflict where their lane-centre paths pass within the sum
of the half-widths of the vehicles using them.  For each ordered pair of
movements we compute the (possibly empty) list of
:class:`ConflictInterval` s — the arc-length windows ``[a_in, a_out]``
on path A and ``[b_in, b_out]`` on path B inside which the two paths are
closer than the clearance threshold.

The FCFS scheduler then serialises conflicting vehicles per interval: a
later vehicle may enter an interval only after the earlier vehicle's
tail (body + safety buffer) has cleared it.  Same-lane followers (equal
movement entry) always "conflict" over the full path, which also covers
rear-end separation inside the box.

The computation is purely geometric, done once per intersection and
cached; it is the moral equivalent of the conflict look-up tables of
Lee & Park (2012) cited in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.geometry.layout import IntersectionGeometry, Movement

__all__ = ["ConflictInterval", "ConflictTable"]


@dataclass(frozen=True)
class ConflictInterval:
    """Arc-length windows over which two paths are too close.

    ``a_in/a_out`` index the first movement's path, ``b_in/b_out`` the
    second's.  All are metres from the respective stop line.
    """

    a_in: float
    a_out: float
    b_in: float
    b_out: float

    def swapped(self) -> "ConflictInterval":
        """The same interval seen from the other vehicle's perspective."""
        return ConflictInterval(self.b_in, self.b_out, self.a_in, self.a_out)


class ConflictTable:
    """All pairwise conflict intervals of an intersection.

    Parameters
    ----------
    geometry:
        The intersection to analyse.
    clearance:
        Centre-to-centre distance below which two paths conflict; by
        default one vehicle width (two half-widths) — callers add
        longitudinal buffers at scheduling time instead of inflating
        the geometry.
    step:
        Sampling resolution along the paths, metres.
    """

    def __init__(
        self,
        geometry: IntersectionGeometry,
        clearance: float = 0.30,
        step: float = 0.02,
    ):
        if clearance <= 0:
            raise ValueError("clearance must be positive")
        if step <= 0:
            raise ValueError("step must be positive")
        self.geometry = geometry
        self.clearance = clearance
        self.step = step
        self._table: Dict[Tuple[str, str], Tuple[ConflictInterval, ...]] = {}
        self._samples: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for movement in geometry.movements:
            pts, ss = geometry.path(movement).sample(step)
            self._samples[movement.key] = (pts, ss)
        movements = geometry.movements
        for i, a in enumerate(movements):
            for b in movements[i:]:
                intervals = tuple(self._compute(a, b))
                self._table[(a.key, b.key)] = intervals
                if a.key != b.key:
                    self._table[(b.key, a.key)] = tuple(
                        iv.swapped() for iv in intervals
                    )

    def _compute(self, a: Movement, b: Movement) -> List[ConflictInterval]:
        if a.key == b.key or a.entry == b.entry:
            # Same lane: full mutual exclusion (rear-end separation).
            la = self.geometry.crossing_distance(a)
            lb = self.geometry.crossing_distance(b)
            return [ConflictInterval(0.0, la, 0.0, lb)]
        pts_a, ss_a = self._samples[a.key]
        pts_b, ss_b = self._samples[b.key]
        # Pairwise distances between the two sampled paths.
        diff = pts_a[:, None, :] - pts_b[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        close = dist < self.clearance
        if not close.any():
            return []
        # The two paths cross (or merge) in at most a few blobs; for the
        # scheduler a single conservative hull per pair is sufficient
        # and is what the paper's single-conflict-region FCFS assumes.
        ai, bi = np.nonzero(close)
        return [
            ConflictInterval(
                a_in=float(ss_a[ai.min()]),
                a_out=float(ss_a[ai.max()]),
                b_in=float(ss_b[bi.min()]),
                b_out=float(ss_b[bi.max()]),
            )
        ]

    def intervals(
        self, a: Movement, b: Movement
    ) -> Tuple[ConflictInterval, ...]:
        """Conflict intervals between movements ``a`` and ``b`` (an
        immutable tuple shared by every caller)."""
        return self._table[(a.key, b.key)]

    def conflicts(self, a: Movement, b: Movement) -> bool:
        """True if the two movements cannot overlap in the box."""
        return bool(self._table[(a.key, b.key)])

    def compatible_pairs(self) -> List[Tuple[str, str]]:
        """Distinct movement pairs that can use the box simultaneously."""
        out = []
        for (ka, kb), ivs in self._table.items():
            if ka < kb and not ivs:
                out.append((ka, kb))
        return out

"""Seed reference implementations of AIM's tile path (tests only).

The production tile path (:mod:`repro.geometry.tiles`,
:meth:`repro.core.aim.AimIM.simulate_cells`) is differential-tested
against the simple implementations it replaced, which live here rather
than in ``src/`` because no run uses them:

* :class:`DictTileReservations` — the seed per-cell dict reservation
  book, the reference for the bitmap :class:`TileReservations`
  (``tests/test_tiles_bitmap.py``);
* :func:`tiles_for_pose_meshgrid` — the seed O(n^2) rasteriser over
  the full tile-centre meshgrid, the reference for
  :meth:`TileGrid.tiles_for_pose` and
  :meth:`TileGrid.footprints_for_keys` (``tests/test_tiles_fast.py``);
* :func:`simulate_cells_scalar` — the exact pose-at-a-time trajectory
  sweep, of which the quantised sweep must claim a superset
  (``tests/test_aim_batch_sweep.py``, ``benchmarks/test_bench_tiles.py``).
"""

import math
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

import numpy as np

from repro.geometry.tiles import TileGrid

TileIndex = Tuple[int, int]


def tiles_for_pose_meshgrid(
    grid: TileGrid,
    x: float,
    y: float,
    heading: float,
    length: float,
    width: float,
    buffer: float = 0.0,
) -> FrozenSet[TileIndex]:
    """Seed O(n^2) rasteriser: test every tile centre of ``grid``."""
    grid._validate_pose(length, width, buffer)
    cx, cy = np.meshgrid(grid._centres, grid._centres, indexing="ij")
    half_l = length / 2.0 + buffer
    half_w = width / 2.0
    grow = grid.tile_size * math.sqrt(2.0) / 2.0
    cos_h, sin_h = math.cos(heading), math.sin(heading)
    dx = cx - x
    dy = cy - y
    lon = dx * cos_h + dy * sin_h
    lat = -dx * sin_h + dy * cos_h
    mask = (np.abs(lon) <= half_l + grow) & (np.abs(lat) <= half_w + grow)
    ii, jj = np.nonzero(mask)
    return frozenset(zip(ii.tolist(), jj.tolist()))


def simulate_cells_scalar(
    im,
    info,
    toa: float,
    vc: float,
    accelerate: bool,
    standoff: float = 0.0,
) -> Set[Tuple[TileIndex, int]]:
    """Exact pose-at-a-time sweep of an AIM request (seed hot path)."""
    spec = info.spec
    path = im.geometry.path(info.movement)
    length = spec.length
    buffer = info.buffer
    v_max = min(spec.v_max, im.config.v_max)
    step = im.aim_config.sim_step
    cells: Set[Tuple[TileIndex, int]] = set()
    t = toa
    # Simulate until the buffered rear clears the path exit.
    while True:
        dt_rel = t - toa
        if accelerate:
            t_ramp = max((v_max - vc) / spec.a_max, 0.0)
            if dt_rel <= t_ramp:
                s_front = vc * dt_rel + 0.5 * spec.a_max * dt_rel ** 2
            else:
                ramp_dist = vc * t_ramp + 0.5 * spec.a_max * t_ramp ** 2
                s_front = ramp_dist + v_max * (dt_rel - t_ramp)
            s_front -= standoff
        else:
            s_front = vc * dt_rel
        if s_front - length - buffer > path.length:
            break
        centre_s = s_front - length / 2.0
        clamped = min(max(centre_s, 0.0), path.length)
        point = path.point_at(clamped)
        heading = path.heading_at(clamped)
        tiles = im.reservations.grid.tiles_for_pose(
            float(point[0]), float(point[1]), heading, length, spec.width, buffer
        )
        slot = im.reservations.slot_of(t)
        for tile in tiles:
            cells.add((tile, slot))
            cells.add((tile, slot + 1))  # guard the slot boundary
        t += step
        if t - toa > 60.0:  # runaway guard for degenerate inputs
            break
    return cells


class DictTileReservations:
    """Seed per-cell dict reservation book (reference implementation).

    Kept verbatim so :class:`TileReservations`'s bitmap backend can be
    differential-tested against it on random workloads — identical
    ``conflicts``/``commit``/``release``/``release_stale``/
    ``purge_before`` answers and counter values.

    Keeps three synchronised indexes: the flat claim map (for conflict
    checks), a per-vehicle index (for release) and a per-slot index
    plus a monotone purge floor (so garbage collection touches only
    dead cells, never the live population).
    """

    def __init__(self, grid: TileGrid, slot: float = 0.05):
        if slot <= 0:
            raise ValueError("slot must be positive")
        self.grid = grid
        self.slot = slot
        self._claims: Dict[Tuple[TileIndex, int], int] = {}
        self._by_vehicle: Dict[int, Set[Tuple[TileIndex, int]]] = {}
        #: Secondary index: slot -> cells claimed in that slot.
        self._by_slot: Dict[int, Set[Tuple[TileIndex, int]]] = {}
        #: All slots >= this are not yet purged (monotone floor).
        self._purge_floor: Optional[int] = None
        self.purge_visited = 0
        self.purged_total = 0

    def slot_of(self, t: float) -> int:
        """Time-slot index containing time ``t``."""
        return int(math.floor(t / self.slot))

    @property
    def claim_count(self) -> int:
        """Number of live (tile, slot) claims."""
        return len(self._claims)

    def holds(self, vehicle_id: int) -> bool:
        """True while ``vehicle_id`` has live (tile, slot) claims."""
        return bool(self._by_vehicle.get(vehicle_id))

    def conflicts(
        self, cells: Iterable[Tuple[TileIndex, int]], vehicle_id: int
    ) -> bool:
        """True if any cell is already claimed by a *different* vehicle."""
        for cell in cells:
            owner = self._claims.get(cell)
            if owner is not None and owner != vehicle_id:
                return True
        return False

    def commit(
        self, cells: Iterable[Tuple[TileIndex, int]], vehicle_id: int
    ) -> None:
        """Claim ``cells`` for ``vehicle_id`` (must be conflict-free)."""
        cells = list(cells)
        if self.conflicts(cells, vehicle_id):
            raise ValueError("commit() of conflicting cells")
        owned = self._by_vehicle.setdefault(vehicle_id, set())
        for cell in cells:
            self._claims[cell] = vehicle_id
            owned.add(cell)
            slot = cell[1]
            self._by_slot.setdefault(slot, set()).add(cell)
            if self._purge_floor is None or slot < self._purge_floor:
                self._purge_floor = slot

    def release(self, vehicle_id: int) -> int:
        """Drop all claims of ``vehicle_id``; returns how many."""
        owned = self._by_vehicle.pop(vehicle_id, set())
        for cell in owned:
            if self._claims.get(cell) == vehicle_id:
                del self._claims[cell]
                in_slot = self._by_slot.get(cell[1])
                if in_slot is not None:
                    in_slot.discard(cell)
                    if not in_slot:
                        del self._by_slot[cell[1]]
        return len(owned)

    def release_stale(self, cutoff_slot: int) -> int:
        """Release every vehicle whose *latest* claim predates
        ``cutoff_slot`` (seed O(claims) scan)."""
        stale = [
            vid
            for vid, cells in self._by_vehicle.items()
            if cells and max(slot for _, slot in cells) < cutoff_slot
        ]
        for vid in stale:
            self.release(vid)
        return len(stale)

    def purge_before(self, t: float) -> int:
        """Drop claims in slots strictly before ``t`` (garbage collection)."""
        cutoff = self.slot_of(t)
        floor = self._purge_floor
        if floor is None or floor >= cutoff:
            return 0
        dead = 0
        for slot in range(floor, cutoff):
            cells = self._by_slot.pop(slot, None)
            if not cells:
                continue
            for cell in cells:
                self.purge_visited += 1
                owner = self._claims.pop(cell, None)
                if owner is None:
                    continue
                dead += 1
                owned = self._by_vehicle.get(owner)
                if owned is not None:
                    owned.discard(cell)
        self._purge_floor = cutoff
        self.purged_total += dead
        return dead

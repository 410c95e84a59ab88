"""Space-time tile reservations (the AIM intersection representation).

AIM (Dresner & Stone) discretises the intersection box into an ``n x n``
grid of tiles and time into fixed slots.  A reservation request is
granted iff the simulated trajectory's swept footprint claims no
(tile, slot) pair already held by another vehicle.

:class:`TileGrid` handles the geometry (pose -> tile set, conservative
rasterisation); :class:`TileReservations` is the bookkeeping.  The cost
of sweeping a footprint over the grid for every (re-)request is exactly
the computational overhead the paper measures against Crossroads
(Ch 7.2: up to 16-20X).

Hot-path notes
--------------
AIM rasterises one footprint per simulated pose per request —
thousands per AIM run.  The seed implementation tested the **full**
``n x n`` meshgrid for every pose (O(n^2) per call).  The grid has one
rasteriser and one footprint format:

* a footprint is a ``uint64`` **bitmap** (bit ``i*n + j`` set iff tile
  ``(i, j)`` is claimed), so the reservation book consumes footprints
  without ever materialising per-cell tuples;
* the one rasteriser (:meth:`TileGrid._rasterise_poses`) computes
  each pose's tile-index **bounding window** (the axis-aligned bounds
  of the grown, rotated rectangle) analytically, flattens the windows
  of all poses it is given into one candidate array and tests it with
  one round of numpy ops — O(footprint) work per pose;
* a small LRU **footprint cache** memoises bitmaps, keyed on the
  quantised ``(x, y, heading, length, width, buffer, pad)`` tuple;
* keys are rounded once per *table entry*, not once per pose: AIM's
  sweep snaps every pose to a per-path table of quantised poses, and
  each table keeps its entries' keys per vehicle size
  (:meth:`TileGrid.pose_keys`), so a request only indexes a list;
* one lookup loop (:meth:`TileGrid.footprints_for_keys`) serves every
  footprint: it counts hits, misses and tested cells pose by pose, in
  order, and sends all cache-missing poses to the rasteriser at once.
  :meth:`TileGrid.tiles_for_pose` is that loop for a single pose, with
  the bitmap unpacked to a tile set.

Inputs are quantised (default: round to 1e-9) *before* both the cache
lookup and the geometry, so a cached entry is exactly the value a fresh
computation would produce for the same key.  The windowed sweep is
bit-identical to the seed's full-meshgrid rasteriser (kept in
``tests/tile_reference.py`` for differential tests): the window is a
strict superset of every tile centre that can satisfy the mask, padded
by one tile against float rounding at the boundary.

Reservation book
----------------
:class:`TileReservations` stores per-slot occupancy as packed
``uint64`` bitmaps in one contiguous ``(slots, words)`` array, so
``conflicts``/``commit``/``release``/``purge_before`` are a handful of
bitwise array ops instead of per-cell dict traffic.  The seed dict
implementation is kept verbatim in ``tests/tile_reference.py`` as the
reference the bitmap book is differential-tested against
(``tests/test_tiles_bitmap.py``).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = [
    "TileFootprint",
    "TileGrid",
    "TileReservations",
]

TileIndex = Tuple[int, int]

#: Decimal places the pose key is rounded to (1e-9 m / rad — far below
#: any physical tolerance, just enough to canonicalise float noise).
_QUANTUM_DECIMALS = 9

_WORD_BITS = 64

if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def _popcount(words: np.ndarray) -> int:
        """Total number of set bits in a uint64 array."""
        return int(np.bitwise_count(words).sum())

else:  # pragma: no cover - exercised only on old numpy

    def _popcount(words: np.ndarray) -> int:
        return int(
            np.unpackbits(np.ascontiguousarray(words).view(np.uint8)).sum()
        )


def _words_for(n_tiles: int) -> int:
    return (n_tiles + _WORD_BITS - 1) // _WORD_BITS


def _unpack_bits(words: np.ndarray) -> np.ndarray:
    """Flat bit indices set in a ``uint64`` word array (sorted)."""
    # Little-endian bytes, least significant bit first: byte b, bit k
    # of the unpacked array is bit 8*b + k of the word array.
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.flatnonzero(np.unpackbits(octets, bitorder="little"))


class TileFootprint:
    """A trajectory sweep as per-slot packed tile bitmaps.

    ``masks[k]`` is the ``uint64`` bitmap of tiles claimed in slot
    ``s0 + k`` (bit ``i*n + j`` <-> tile ``(i, j)``).  This is the
    array-native interchange format between :meth:`AimIM.simulate_cells
    <repro.core.aim.AimIM.simulate_cells>` and
    :class:`TileReservations`; iteration yields classic
    ``((i, j), slot)`` pairs for tests and debugging.
    """

    __slots__ = ("n", "s0", "masks", "_count")

    def __init__(self, n: int, s0: int, masks: np.ndarray):
        if masks.ndim != 2 or masks.dtype != np.uint64:
            raise ValueError("masks must be a 2-D uint64 array")
        self.n = n
        self.s0 = int(s0)
        self.masks = masks
        self._count: Optional[int] = None

    @classmethod
    def from_cells(
        cls, cells: Iterable[Tuple[TileIndex, int]], n: int
    ) -> "TileFootprint":
        """Build from classic ``((i, j), slot)`` pairs."""
        cells = list(cells)
        words = _words_for(n * n)
        if not cells:
            return cls(n, 0, np.zeros((0, words), dtype=np.uint64))
        slots = [slot for _, slot in cells]
        s0, s1 = min(slots), max(slots)
        masks = np.zeros((s1 - s0 + 1, words), dtype=np.uint64)
        for (i, j), slot in cells:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"tile {(i, j)} outside a {n}x{n} grid")
            bit = i * n + j
            masks[slot - s0, bit >> 6] |= np.uint64(1) << np.uint64(bit & 63)
        return cls(n, s0, masks)

    @property
    def cell_count(self) -> int:
        """Number of distinct (tile, slot) cells."""
        if self._count is None:
            self._count = _popcount(self.masks)
        return self._count

    def __len__(self) -> int:
        return self.cell_count

    def __bool__(self) -> bool:
        return self.cell_count > 0

    def __iter__(self):
        n = self.n
        for k in range(len(self.masks)):
            for bit in _unpack_bits(self.masks[k]).tolist():
                yield ((bit // n, bit % n), self.s0 + k)

    def cells(self) -> Set[Tuple[TileIndex, int]]:
        """The classic cell-set representation."""
        return set(self)

    def __repr__(self) -> str:
        return (
            f"TileFootprint(n={self.n}, slots=[{self.s0}, "
            f"{self.s0 + len(self.masks)}), cells={self.cell_count})"
        )


class TileGrid:
    """Uniform grid over the square intersection box.

    Parameters
    ----------
    box:
        Side length of the box, metres (centred at the origin).
    n:
        Tiles per side.
    cache_size:
        Capacity of the LRU footprint cache (0 disables caching).
    """

    def __init__(self, box: float, n: int = 24, cache_size: int = 4096):
        if box <= 0:
            raise ValueError("box must be positive")
        if n < 1:
            raise ValueError("n must be >= 1")
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self.box = box
        self.n = n
        self.tile_size = box / n
        half = box / 2.0
        #: 1-D tile-centre coordinates (shared by both axes).
        self._centres = -half + (np.arange(n) + 0.5) * self.tile_size
        #: uint64 words per packed footprint bitmap.
        self.words = _words_for(n * n)
        self.cache_size = cache_size
        #: Quantised pose key -> footprint bitmap (LRU order).
        self._cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        # -- perf counters (harvested into SimResult.perf) ---------------
        #: Tile centres actually tested (windowed sub-array sizes).
        self.cells_tested = 0
        #: Footprint-cache hits / misses.
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def num_tiles(self) -> int:
        """Total tile count."""
        return self.n * self.n

    def tile_of(self, x: float, y: float) -> Optional[TileIndex]:
        """Tile containing ``(x, y)``, or ``None`` outside the box."""
        half = self.box / 2.0
        if not (-half <= x < half and -half <= y < half):
            return None
        i = int((x + half) / self.tile_size)
        j = int((y + half) / self.tile_size)
        return (min(i, self.n - 1), min(j, self.n - 1))

    # -- footprint rasterisation ------------------------------------------
    @staticmethod
    def _validate_pose(
        length: float, width: float, buffer: float, pad: float = 0.0
    ) -> None:
        if length <= 0 or width <= 0:
            raise ValueError("length and width must be positive")
        if buffer < 0:
            raise ValueError("buffer must be non-negative")
        if pad < 0:
            raise ValueError("pad must be non-negative")

    def _cache_store(self, key: tuple, bitmap: np.ndarray) -> None:
        self._cache[key] = bitmap
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def tiles_for_pose(
        self,
        x: float,
        y: float,
        heading: float,
        length: float,
        width: float,
        buffer: float = 0.0,
        pad: float = 0.0,
    ) -> FrozenSet[TileIndex]:
        """Tiles overlapped by a vehicle rectangle (conservatively).

        The rectangle is centred at ``(x, y)``, aligned with
        ``heading``, of size ``(length + 2*buffer) x width`` — the
        buffer pads the front and rear only, because the paper's safety
        buffer is the *longitudinal* ``Elong`` (lateral error is
        absorbed by lane keeping, Ch 3.2).  A tile is claimed when its
        centre lies within the rectangle grown by half the tile
        diagonal — a strict over-approximation, as safety requires.
        ``pad`` additionally grows the rectangle on *all* sides: the
        coarse-pose sweep uses it to make a snapped pose's footprint a
        provable superset of the true pose's (see
        :meth:`repro.core.aim.AimIM.simulate_cells`).

        Only the tile-index bounding window of the grown rectangle is
        tested (not the full grid), and results are memoised per
        quantised pose: this is :meth:`footprints_for_keys` for one
        pose, with the bitmap unpacked.  See the module docstring.
        """
        keys = self.pose_keys([x], [y], [heading], length, width, buffer, pad)
        bits = _unpack_bits(self.footprints_for_keys(keys)[0])
        return frozenset(zip((bits // self.n).tolist(), (bits % self.n).tolist()))

    def pose_keys(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        headings: Sequence[float],
        length: float,
        width: float,
        buffer: float = 0.0,
        pad: float = 0.0,
    ) -> List[tuple]:
        """Footprint-cache keys of poses that share one vehicle size.

        A key is the pose's ``(x, y, heading, length, width, buffer,
        pad)``, each field rounded to ``_QUANTUM_DECIMALS`` places; the
        four size fields are validated and rounded once for the whole
        batch.
        """
        self._validate_pose(length, width, buffer, pad)
        tail = (
            round(length, _QUANTUM_DECIMALS),
            round(width, _QUANTUM_DECIMALS),
            round(buffer, _QUANTUM_DECIMALS),
            round(pad, _QUANTUM_DECIMALS),
        )
        return [
            (
                round(float(x), _QUANTUM_DECIMALS),
                round(float(y), _QUANTUM_DECIMALS),
                round(float(heading), _QUANTUM_DECIMALS),
            )
            + tail
            for x, y, heading in zip(xs, ys, headings)
        ]

    def footprints_for_keys(self, keys: Sequence[tuple]) -> List[np.ndarray]:
        """Footprint bitmaps of poses, given their cache keys.

        The one lookup loop of the grid (AIM's sweep calls it once per
        request).  Cache hits are served pose by pose, in order; every
        *missing* pose of the batch is rasterised in a single
        vectorised pass (:meth:`_rasterise_poses`) and stored
        afterwards, in first-miss order.  Counter semantics match a
        pose-at-a-time lookup: a pose repeated within the batch counts
        one miss and then hits.
        """
        entries: List[Optional[np.ndarray]] = [None] * len(keys)
        pending: Dict[tuple, List[int]] = {}
        if self.cache_size:
            cache = self._cache
            hits = 0
            for k, key in enumerate(keys):
                cached = cache.get(key)
                if cached is not None:
                    hits += 1
                    cache.move_to_end(key)
                    entries[k] = cached
                    continue
                waiting = pending.get(key)
                if waiting is not None:
                    # Sequentially this pose would hit the entry the
                    # first occurrence just stored.
                    hits += 1
                    waiting.append(k)
                    continue
                self.cache_misses += 1
                pending[key] = [k]
            self.cache_hits += hits
        else:
            for k, key in enumerate(keys):
                pending.setdefault(key, []).append(k)
        if pending:
            miss_keys = list(pending)
            computed = self._rasterise_poses(miss_keys)
            for key, entry in zip(miss_keys, computed):
                for k in pending[key]:
                    entries[k] = entry
                if self.cache_size:
                    self._cache_store(key, entry)
        return entries  # type: ignore[return-value]

    def _rasterise_poses(self, keys: List[tuple]) -> List[np.ndarray]:
        """Footprint bitmaps of quantised poses that share one size.

        The grid's one rasteriser.  A pose's window is the range of
        tile indices whose centres may lie within the axis-aligned
        bounds of its grown, rotated rectangle, padded by one tile
        against float rounding.  Windows are found pose by pose on
        Python floats, because most calls rasterise one or two poses,
        where numpy's per-call cost would dominate.  All windows are
        then flattened into one candidate array ``(pose, i, j)`` and
        tested with one round of array ops, so a pose's bitmap does
        not depend on which other poses share its batch.
        """
        count = len(keys)
        # Dimensions are shared across a batch (same vehicle+buffer).
        _, _, _, length, width, buffer, pad = keys[0]
        # Half-extents of the rectangle grown by half the tile diagonal
        # (see tiles_for_pose) and by ``pad``.
        grow = self.tile_size * math.sqrt(2.0) / 2.0
        lon_reach = length / 2.0 + buffer + grow + pad
        lat_reach = width / 2.0 + grow + pad
        half = self.box / 2.0
        ts = self.tile_size
        last = self.n - 1
        poses = []
        for x, y, heading, *_ in keys:
            # math.cos/math.sin: numpy's SIMD transcendentals may differ
            # from libm by an ulp.
            cos_h, sin_h = math.cos(heading), math.sin(heading)
            # AABB half-extents of the grown rectangle rotated by heading.
            wx = abs(cos_h) * lon_reach + abs(sin_h) * lat_reach
            wy = abs(sin_h) * lon_reach + abs(cos_h) * lat_reach
            i0 = max(math.ceil((x - wx + half) / ts - 0.5) - 1, 0)
            i1 = min(math.floor((x + wx + half) / ts - 0.5) + 1, last)
            j0 = max(math.ceil((y - wy + half) / ts - 0.5) - 1, 0)
            j1 = min(math.floor((y + wy + half) / ts - 0.5) + 1, last)
            wi, wj = max(i1 - i0 + 1, 0), max(j1 - j0 + 1, 0)
            poses.append((x, y, cos_h, sin_h, i0, j0, wj, wi * wj))
        table = np.array(poses)
        xs, ys, cos, sin = table[:, :4].T
        i0, j0, wj, counts = table[:, 4:].astype(np.int64).T
        total = int(counts.sum())
        self.cells_tested += total
        masks = np.zeros((count, self.words), dtype=np.uint64)
        if total:
            rep = np.repeat(np.arange(count), counts)
            local = np.arange(total) - (np.cumsum(counts) - counts)[rep]
            ii = i0[rep] + local // wj[rep]
            jj = j0[rep] + local % wj[rep]
            dx = self._centres[ii] - xs[rep]
            dy = self._centres[jj] - ys[rep]
            cr, sr = cos[rep], sin[rep]
            lon = dx * cr + dy * sr
            lat = -dx * sr + dy * cr
            keep = (np.abs(lon) <= lon_reach) & (np.abs(lat) <= lat_reach)
            bits = (ii * self.n + jj)[keep]
            np.bitwise_or.at(
                masks,
                (rep[keep], bits >> 6),
                np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64)),
            )
        return list(masks)

    def cache_clear(self) -> None:
        """Empty the footprint cache (counters are left running)."""
        self._cache.clear()

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of footprint lookups served from the cache: every
        pose :meth:`footprints_for_keys` looks up counts, whether a
        sweep or :meth:`tiles_for_pose` asked for it."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def __repr__(self) -> str:
        return f"TileGrid(box={self.box}, n={self.n})"


class TileReservations:
    """Bookkeeping of (tile, time-slot) claims, bitmap backed.

    Per-slot occupancy lives in one contiguous ``(slots, words)``
    ``uint64`` array (``self._occ``); a vehicle's claims are stored as
    aligned mask blocks.  ``conflicts`` is then *(occupancy & footprint
    & ~own)* over the footprint's slot range — a couple of array ops —
    and ``commit``/``release``/``purge_before`` are bitwise OR /
    AND-NOT plus popcounts.  Ownership stays exclusive by construction
    (``commit`` raises on conflict), so occupancy popcounts equal claim
    counts.

    Garbage collection keeps the seed's cost model: ``purge_before``
    touches only rows between the monotone purge floor and the cutoff,
    and ``release_stale`` reads an incrementally maintained per-vehicle
    max-slot map — O(vehicles), never O(claims).

    The seed per-cell dict implementation, the reference this class is
    differential-tested against, lives in ``tests/tile_reference.py``.

    Parameters
    ----------
    grid:
        The spatial discretisation.
    slot:
        Time-slot length in seconds.
    """

    def __init__(self, grid: TileGrid, slot: float = 0.05):
        if slot <= 0:
            raise ValueError("slot must be positive")
        self.grid = grid
        self.slot = slot
        self._words = grid.words
        #: Slot index of row 0 of ``_occ`` (None until first commit).
        self._base: Optional[int] = None
        self._occ = np.zeros((0, self._words), dtype=np.uint64)
        #: vehicle -> list of (s0, masks) blocks (usually exactly one).
        self._blocks: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        #: vehicle -> highest slot it holds (incrementally maintained so
        #: ``release_stale`` is O(vehicles), not O(claims)).
        self._max_slot: Dict[int, int] = {}
        #: slot -> vehicles holding claims there (purge-trim index).
        self._slot_vids: Dict[int, Set[int]] = {}
        #: All slots >= this are not yet purged (monotone floor).
        self._purge_floor: Optional[int] = None
        self._claim_count = 0
        # -- perf counters -------------------------------------------------
        #: Cells examined by purge_before across the lifetime (regression
        #: guard: grows with *dead* cells only, never with live ones).
        self.purge_visited = 0
        #: Cells actually purged across the lifetime.
        self.purged_total = 0

    def slot_of(self, t: float) -> int:
        """Time-slot index containing time ``t``."""
        return int(math.floor(t / self.slot))

    @property
    def claim_count(self) -> int:
        """Number of live (tile, slot) claims."""
        return self._claim_count

    # -- representation helpers -------------------------------------------
    def _as_footprint(self, cells) -> TileFootprint:
        if isinstance(cells, TileFootprint):
            if cells.n != self.grid.n:
                raise ValueError(
                    f"footprint for a {cells.n}x{cells.n} grid used with a "
                    f"{self.grid.n}x{self.grid.n} reservation book"
                )
            return cells
        return TileFootprint.from_cells(cells, self.grid.n)

    def _ensure_rows(self, s0: int, s1: int) -> None:
        """Grow ``_occ`` so slots ``[s0, s1)`` are addressable."""
        if self._base is None:
            rows = max(s1 - s0, 64)
            self._base = s0
            self._occ = np.zeros((rows, self._words), dtype=np.uint64)
            return
        base, rows = self._base, len(self._occ)
        if s0 >= base and s1 <= base + rows:
            return
        new_base = min(base, s0)
        new_end = max(base + rows, s1)
        # Geometric headroom keeps amortised growth O(1) per slot.
        alloc = max(new_end - new_base, 2 * rows)
        occ = np.zeros((alloc, self._words), dtype=np.uint64)
        occ[base - new_base : base - new_base + rows] = self._occ
        self._base = new_base
        self._occ = occ

    def _occ_view(self, s0: int, count: int) -> np.ndarray:
        """Writable occupancy rows for slots ``[s0, s0 + count)``
        (caller must have ensured capacity)."""
        assert self._base is not None
        lo = s0 - self._base
        return self._occ[lo : lo + count]

    def _occ_copy(self, s0: int, count: int) -> np.ndarray:
        """Occupancy rows for ``[s0, s0 + count)``, zeros outside the
        allocated range (read-only use)."""
        out = np.zeros((count, self._words), dtype=np.uint64)
        if self._base is None:
            return out
        base, rows = self._base, len(self._occ)
        lo = max(s0, base)
        hi = min(s0 + count, base + rows)
        if lo < hi:
            out[lo - s0 : hi - s0] = self._occ[lo - base : hi - base]
        return out

    def _own_mask(self, vehicle_id: int, s0: int, count: int) -> Optional[np.ndarray]:
        """The vehicle's claims over ``[s0, s0 + count)``, or None."""
        blocks = self._blocks.get(vehicle_id)
        if not blocks:
            return None
        out = None
        for b0, masks in blocks:
            lo = max(s0, b0)
            hi = min(s0 + count, b0 + len(masks))
            if lo >= hi:
                continue
            if out is None:
                out = np.zeros((count, self._words), dtype=np.uint64)
            out[lo - s0 : hi - s0] |= masks[lo - b0 : hi - b0]
        return out

    # -- public API --------------------------------------------------------
    def holds(self, vehicle_id: int) -> bool:
        """True while ``vehicle_id`` has live (tile, slot) claims.

        IM-side ground truth for the safety oracle: an AIM vehicle
        entering the box without claims is an ungranted entry.
        """
        return bool(self._blocks.get(vehicle_id))

    def conflicts(self, cells, vehicle_id: int) -> bool:
        """True if any cell is already claimed by a *different* vehicle.

        ``cells`` may be a :class:`TileFootprint` (array fast path) or
        any iterable of ``((i, j), slot)`` pairs.
        """
        fp = self._as_footprint(cells)
        count = len(fp.masks)
        if count == 0:
            return False
        taken = self._occ_copy(fp.s0, count)
        taken &= fp.masks
        if not taken.any():
            return False
        own = self._own_mask(vehicle_id, fp.s0, count)
        if own is not None:
            taken &= ~own
        return bool(taken.any())

    def commit(self, cells, vehicle_id: int) -> None:
        """Claim ``cells`` for ``vehicle_id`` (must be conflict-free)."""
        fp = self._as_footprint(cells)
        if self.conflicts(fp, vehicle_id):
            raise ValueError("commit() of conflicting cells")
        rows_any = fp.masks.any(axis=1)
        if not rows_any.any():
            return
        present = np.nonzero(rows_any)[0]
        lo = fp.s0 + int(present[0])
        hi = fp.s0 + int(present[-1]) + 1
        self._ensure_rows(lo, hi)
        occ = self._occ_view(lo, hi - lo)
        masks = fp.masks[lo - fp.s0 : hi - fp.s0]
        new_bits = masks & ~occ
        self._claim_count += _popcount(new_bits)
        occ |= masks
        self._blocks.setdefault(vehicle_id, []).append((lo, masks.copy()))
        top = fp.s0 + int(present[-1])
        if self._max_slot.get(vehicle_id, top - 1) < top:
            self._max_slot[vehicle_id] = top
        for k in present.tolist():
            self._slot_vids.setdefault(fp.s0 + k, set()).add(vehicle_id)
        if self._purge_floor is None or lo < self._purge_floor:
            self._purge_floor = lo

    def release(self, vehicle_id: int) -> int:
        """Drop all claims of ``vehicle_id``; returns how many."""
        blocks = self._blocks.pop(vehicle_id, None)
        self._max_slot.pop(vehicle_id, None)
        if not blocks:
            return 0
        lo = min(b0 for b0, _ in blocks)
        hi = max(b0 + len(masks) for b0, masks in blocks)
        merged = np.zeros((hi - lo, self._words), dtype=np.uint64)
        for b0, masks in blocks:
            merged[b0 - lo : b0 - lo + len(masks)] |= masks
        self._ensure_rows(lo, hi)
        occ = self._occ_view(lo, hi - lo)
        # Ownership is exclusive and purged rows were trimmed from the
        # blocks, so occupancy ∩ merged is exactly this vehicle's live
        # claim set.
        live = occ & merged
        released = _popcount(live)
        occ &= ~merged
        self._claim_count -= released
        return released

    def release_stale(self, cutoff_slot: int) -> int:
        """Release every vehicle whose *latest* claim predates
        ``cutoff_slot``.

        Such a vehicle's entire reservation lies in the past: it should
        long have crossed and exited, yet its claims are still on the
        book — the exit notification was lost or the vehicle went
        radio-dark.  Returns the number of vehicles released (the
        quiet-vehicle invalidation count).  Vehicles holding *any*
        future claim are left alone: silence while cruising toward a
        booked ToA is normal.

        The per-vehicle max slot is maintained incrementally by
        ``commit``/``purge_before``, so the 1 Hz watchdog scan is
        O(vehicles) — it never touches a cell set.
        """
        stale = [
            vid for vid, top in self._max_slot.items() if top < cutoff_slot
        ]
        for vid in stale:
            self.release(vid)
        return len(stale)

    def purge_before(self, t: float) -> int:
        """Drop claims in slots strictly before ``t`` (garbage collection).

        Walks the occupancy rows from the purge floor to the cutoff:
        each slot row is visited at most once over the reservation
        table's lifetime, and only *dead* cells are counted — cost is
        independent of how many live claims exist.
        """
        cutoff = self.slot_of(t)
        floor = self._purge_floor
        if floor is None or floor >= cutoff:
            return 0
        dead = 0
        if self._base is not None:
            lo = max(floor, self._base)
            hi = min(cutoff, self._base + len(self._occ))
            if lo < hi:
                rows = self._occ_view(lo, hi - lo)
                dead = _popcount(rows)
                rows[:] = 0
        self.purge_visited += dead
        self.purged_total += dead
        self._claim_count -= dead
        # Trim the affected vehicles' blocks so release/conflicts never
        # see purged cells (a purged cell may be legally re-claimed by
        # another vehicle later).
        affected: Set[int] = set()
        for s in range(floor, cutoff):
            vids = self._slot_vids.pop(s, None)
            if vids:
                affected |= vids
        for vid in affected:
            blocks = self._blocks.get(vid)
            if not blocks:
                continue
            kept: List[Tuple[int, np.ndarray]] = []
            for b0, masks in blocks:
                if b0 + len(masks) <= cutoff:
                    continue  # fully purged
                if b0 < cutoff:
                    masks = masks[cutoff - b0 :]
                    b0 = cutoff
                if masks.any():
                    kept.append((b0, masks))
            if kept:
                self._blocks[vid] = kept
            else:
                self._blocks.pop(vid, None)
                self._max_slot.pop(vid, None)
        self._purge_floor = cutoff
        return dead


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
``tiles_for_pose`` is called once per simulated pose per request —
thousands of times per AIM run.  The seed implementation rasterised
against the **full** ``n x n`` meshgrid for every pose (O(n^2) per
call).  The current implementation

* analytically computes the pose's tile-index **bounding window** (the
  axis-aligned bounds of the grown, rotated rectangle) and tests only
  that sub-array — O(footprint) work per pose;
* memoises results in a small LRU **footprint cache** keyed on the
  quantised ``(x, y, heading, length, width, buffer, pad)`` tuple.
  Each cache entry stores both the tile frozenset and the tiles packed
  as a ``uint64`` **bitmap** (bit ``i*n + j`` set iff tile ``(i, j)``
  is claimed), so the reservation book can consume footprints without
  ever materialising per-cell tuples;
* rounds keys once per *table entry*, not once per pose: AIM's sweep
  snaps every pose to a per-path table of quantised poses, and each
  table keeps its entries' keys per vehicle size
  (:meth:`TileGrid.pose_keys`), so a request only indexes a list;
* serves a sweep through one lookup loop
  (:meth:`TileGrid.footprints_for_keys`) that counts hits, misses and
  tested cells pose by pose, in sweep order, and rasterises all of the
  sweep's cache-missing poses in one vectorised pass (all candidate
  tile centres flattened into a single array, one round of numpy ops).

Inputs are quantised (default: round to 1e-9) *before* both the cache
lookup and the geometry, so a cached entry is exactly the value a fresh
computation would produce for the same key.  The windowed sweep is
bit-identical to the full-meshgrid reference (kept as
:meth:`TileGrid._tiles_for_pose_meshgrid` for differential tests): the
window is a strict superset of every tile centre that can satisfy the
mask, padded by one tile against float rounding at the boundary.

Reservation book
----------------
:class:`TileReservations` stores per-slot occupancy as packed
``uint64`` bitmaps in one contiguous ``(slots, words)`` array, so
``conflicts``/``commit``/``release``/``purge_before`` are a handful of
bitwise array ops instead of per-cell dict traffic.  The seed dict
implementation is kept verbatim as :class:`DictTileReservations` — the
reference the bitmap book is differential-tested against
(``tests/test_tiles_fast.py``).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = [
    "DictTileReservations",
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


def _pack_bits(bits: np.ndarray, words: int) -> np.ndarray:
    """Pack flat bit indices into a ``uint64`` word array."""
    out = np.zeros(words, dtype=np.uint64)
    if len(bits):
        np.bitwise_or.at(
            out,
            bits >> 6,
            np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64)),
        )
    return out


def _unpack_bits(words: np.ndarray) -> np.ndarray:
    """Flat bit indices set in a ``uint64`` word array (sorted)."""
    out: List[int] = []
    for w, word in enumerate(words.tolist()):
        base = w << 6
        while word:
            low = word & -word
            out.append(base + low.bit_length() - 1)
            word ^= low
    return np.asarray(out, dtype=np.int64)


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
        #: Same centres as plain Python floats (the scalar hot loop is
        #: faster on builtin floats than on numpy scalars; ``float()``
        #: of a float64 is exact, so both paths see identical values).
        self._centres_f: List[float] = [float(c) for c in self._centres]
        self._mesh = None  # lazy full meshgrid (reference path only)
        #: uint64 words per packed footprint bitmap.
        self.words = _words_for(n * n)
        self.cache_size = cache_size
        self._cache: "OrderedDict[tuple, Tuple[FrozenSet[TileIndex], np.ndarray]]" = (
            OrderedDict()
        )
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

    def _index_window(self, centre: float, half_extent: float) -> Tuple[int, int]:
        """Inclusive tile-index range whose centres may fall inside
        ``[centre - half_extent, centre + half_extent]``, padded by one
        tile against float rounding.  May be empty (``lo > hi``)."""
        half = self.box / 2.0
        ts = self.tile_size
        lo = math.ceil((centre - half_extent + half) / ts - 0.5) - 1
        hi = math.floor((centre + half_extent + half) / ts - 0.5) + 1
        return max(lo, 0), min(hi, self.n - 1)

    def _key_for(
        self,
        x: float,
        y: float,
        heading: float,
        length: float,
        width: float,
        buffer: float,
        pad: float,
    ) -> tuple:
        return (
            round(x, _QUANTUM_DECIMALS),
            round(y, _QUANTUM_DECIMALS),
            round(heading, _QUANTUM_DECIMALS),
            round(length, _QUANTUM_DECIMALS),
            round(width, _QUANTUM_DECIMALS),
            round(buffer, _QUANTUM_DECIMALS),
            round(pad, _QUANTUM_DECIMALS),
        )

    def _cache_store(
        self, key: tuple, entry: Tuple[FrozenSet[TileIndex], np.ndarray]
    ) -> None:
        self._cache[key] = entry
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
        quantised pose; see the module docstring.
        """
        return self.footprint_for_pose(x, y, heading, length, width, buffer, pad)[0]

    def footprint_for_pose(
        self,
        x: float,
        y: float,
        heading: float,
        length: float,
        width: float,
        buffer: float = 0.0,
        pad: float = 0.0,
    ) -> Tuple[FrozenSet[TileIndex], np.ndarray]:
        """Like :meth:`tiles_for_pose` but returns ``(tiles, bitmap)``."""
        self._validate_pose(length, width, buffer, pad)
        key = self._key_for(x, y, heading, length, width, buffer, pad)
        if self.cache_size:
            cached = self._cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                self._cache.move_to_end(key)
                return cached
            self.cache_misses += 1
        entry = self._rasterise_pose(*key)
        if self.cache_size:
            self._cache_store(key, entry)
        return entry

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

        Each key equals :meth:`_key_for` of its pose; the four size
        fields are validated and rounded once for the whole batch.
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

    def footprints_for_keys(
        self, keys: Sequence[tuple]
    ) -> List[Tuple[FrozenSet[TileIndex], np.ndarray]]:
        """Footprints of a sweep's poses, given their cache keys.

        The lookup loop of AIM's sweep.  Cache hits are served pose by
        pose, in order; every *missing* pose of the
        batch is rasterised in a single vectorised pass (all candidate
        tile centres of all windows flattened into one array) and
        stored afterwards, in first-miss order.  Counter semantics
        match a sequential scalar sweep: a pose repeated within the
        batch counts one miss and then hits.
        """
        entries: List[Optional[Tuple[FrozenSet[TileIndex], np.ndarray]]] = (
            [None] * len(keys)
        )
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

    #: Window sizes above this use the vectorised numpy path; below it
    #: a scalar Python loop wins (small-array numpy calls pay ~µs of
    #: fixed dispatch overhead per op; the crossover sits near a couple
    #: hundred cells).
    _VECTOR_THRESHOLD = 192

    @staticmethod
    def _reaches(
        length: float, width: float, buffer: float, pad: float, tile_size: float
    ) -> Tuple[float, float]:
        half_l = length / 2.0 + buffer
        half_w = width / 2.0
        grow = tile_size * math.sqrt(2.0) / 2.0
        return half_l + grow + pad, half_w + grow + pad

    def _rasterise_pose(
        self,
        x: float,
        y: float,
        heading: float,
        length: float,
        width: float,
        buffer: float,
        pad: float,
    ) -> Tuple[FrozenSet[TileIndex], np.ndarray]:
        """Windowed sweep: test only the pose's bounding sub-array.

        Scalar and vectorised paths perform the identical IEEE float64
        operations in the identical order (multiply-then-add, no FMA),
        so all implementations — scalar window, numpy window, batched
        flat pass, full meshgrid — return the same frozensets bit for
        bit.
        """
        lon_reach, lat_reach = self._reaches(
            length, width, buffer, pad, self.tile_size
        )
        cos_h, sin_h = math.cos(heading), math.sin(heading)
        # AABB half-extents of the grown rectangle rotated by heading.
        wx = abs(cos_h) * lon_reach + abs(sin_h) * lat_reach
        wy = abs(sin_h) * lon_reach + abs(cos_h) * lat_reach
        i0, i1 = self._index_window(x, wx)
        j0, j1 = self._index_window(y, wy)
        if i0 > i1 or j0 > j1:
            return frozenset(), np.zeros(self.words, dtype=np.uint64)
        window = (i1 - i0 + 1) * (j1 - j0 + 1)
        self.cells_tested += window
        if window > self._VECTOR_THRESHOLD:
            # Tile centres of the window, in the vehicle frame.
            dx = self._centres[i0 : i1 + 1][:, None] - x
            dy = self._centres[j0 : j1 + 1][None, :] - y
            lon = dx * cos_h + dy * sin_h
            lat = -dx * sin_h + dy * cos_h
            mask = (np.abs(lon) <= lon_reach) & (np.abs(lat) <= lat_reach)
            ii, jj = np.nonzero(mask)
            ii = ii + i0
            jj = jj + j0
            tiles = frozenset(zip(ii.tolist(), jj.tolist()))
            return tiles, _pack_bits(ii * self.n + jj, self.words)
        centres = self._centres_f
        dys = [centres[j] - y for j in range(j0, j1 + 1)]
        out: List[TileIndex] = []
        for i in range(i0, i1 + 1):
            dx_i = centres[i] - x
            lon_i = dx_i * cos_h
            lat_i = -dx_i * sin_h
            for j, dy_j in enumerate(dys, start=j0):
                lon = lon_i + dy_j * sin_h
                if lon > lon_reach or lon < -lon_reach:
                    continue
                lat = lat_i + dy_j * cos_h
                if -lat_reach <= lat <= lat_reach:
                    out.append((i, j))
        bits = np.asarray([i * self.n + j for i, j in out], dtype=np.int64)
        return frozenset(out), _pack_bits(bits, self.words)

    def _rasterise_poses(
        self, keys: List[tuple]
    ) -> List[Tuple[FrozenSet[TileIndex], np.ndarray]]:
        """One vectorised rasterisation pass over many quantised poses.

        All windows are flattened into a single candidate array
        ``(pose, i, j)`` and tested with one round of array ops; the
        per-candidate float expressions are identical to the scalar
        path, so the resulting tile sets are bit-identical to
        pose-at-a-time sweeps.
        """
        count = len(keys)
        # Dimensions are shared across a batch (same vehicle+buffer).
        _, _, _, length, width, buffer, pad = keys[0]
        lon_reach, lat_reach = self._reaches(
            length, width, buffer, pad, self.tile_size
        )
        xs = np.array([k[0] for k in keys], dtype=float)
        ys = np.array([k[1] for k in keys], dtype=float)
        # math.cos/math.sin per pose: numpy's SIMD transcendentals may
        # differ from libm by an ulp, which would break bit-identity
        # with the scalar path.  Trig is a tiny fraction of the sweep.
        cos = np.array([math.cos(k[2]) for k in keys], dtype=float)
        sin = np.array([math.sin(k[2]) for k in keys], dtype=float)
        wx = np.abs(cos) * lon_reach + np.abs(sin) * lat_reach
        wy = np.abs(sin) * lon_reach + np.abs(cos) * lat_reach
        half = self.box / 2.0
        ts = self.tile_size
        i0 = np.maximum(np.ceil((xs - wx + half) / ts - 0.5) - 1, 0).astype(np.int64)
        i1 = np.minimum(
            np.floor((xs + wx + half) / ts - 0.5) + 1, self.n - 1
        ).astype(np.int64)
        j0 = np.maximum(np.ceil((ys - wy + half) / ts - 0.5) - 1, 0).astype(np.int64)
        j1 = np.minimum(
            np.floor((ys + wy + half) / ts - 0.5) + 1, self.n - 1
        ).astype(np.int64)
        wi = np.maximum(i1 - i0 + 1, 0)
        wj = np.maximum(j1 - j0 + 1, 0)
        counts = wi * wj
        total = int(counts.sum())
        self.cells_tested += total
        empty = (frozenset(), np.zeros(self.words, dtype=np.uint64))
        if total == 0:
            return [empty] * count
        offsets = np.concatenate([[0], np.cumsum(counts)])
        rep = np.repeat(np.arange(count), counts)
        local = np.arange(total) - offsets[rep]
        ii = i0[rep] + local // wj[rep]
        jj = j0[rep] + local % wj[rep]
        dx = self._centres[ii] - xs[rep]
        dy = self._centres[jj] - ys[rep]
        cr, sr = cos[rep], sin[rep]
        lon = dx * cr + dy * sr
        lat = -dx * sr + dy * cr
        keep = (np.abs(lon) <= lon_reach) & (np.abs(lat) <= lat_reach)
        rep_k, ii_k, jj_k = rep[keep], ii[keep], jj[keep]
        bits = ii_k * self.n + jj_k
        bounds = np.searchsorted(rep_k, np.arange(count + 1))
        out: List[Tuple[FrozenSet[TileIndex], np.ndarray]] = []
        for p in range(count):
            a, b = bounds[p], bounds[p + 1]
            if a == b:
                out.append(empty)
                continue
            tiles = frozenset(zip(ii_k[a:b].tolist(), jj_k[a:b].tolist()))
            out.append((tiles, _pack_bits(bits[a:b], self.words)))
        return out

    def _tiles_for_pose_meshgrid(
        self,
        x: float,
        y: float,
        heading: float,
        length: float,
        width: float,
        buffer: float = 0.0,
    ) -> FrozenSet[TileIndex]:
        """Seed O(n^2) reference implementation (kept for differential
        tests): rasterise against the full tile-centre meshgrid."""
        self._validate_pose(length, width, buffer)
        if self._mesh is None:
            self._mesh = np.meshgrid(self._centres, self._centres, indexing="ij")
        cx, cy = self._mesh
        half_l = length / 2.0 + buffer
        half_w = width / 2.0
        grow = self.tile_size * math.sqrt(2.0) / 2.0
        cos_h, sin_h = math.cos(heading), math.sin(heading)
        dx = cx - x
        dy = cy - y
        lon = dx * cos_h + dy * sin_h
        lat = -dx * sin_h + dy * cos_h
        mask = (np.abs(lon) <= half_l + grow) & (np.abs(lat) <= half_w + grow)
        ii, jj = np.nonzero(mask)
        return frozenset(zip(ii.tolist(), jj.tolist()))

    def cache_clear(self) -> None:
        """Empty the footprint cache (counters are left running)."""
        self._cache.clear()

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of ``tiles_for_pose`` calls served from the cache."""
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

    The seed per-cell dict implementation is kept as
    :class:`DictTileReservations`, the reference this class is
    differential-tested against.

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

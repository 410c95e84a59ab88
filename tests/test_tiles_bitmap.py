"""Bitmap reservation book: differential + boundary + counter tests.

The bitmap :class:`TileReservations` must answer every query —
``conflicts``/``commit``/``release``/``release_stale``/``purge_before``
plus ``claim_count`` and the purge counters — identically to the seed
per-cell dict implementation (kept as
:class:`tests.tile_reference.DictTileReservations`) on randomised
workloads.  :class:`TileFootprint` is the packed interchange format;
its round-trips must be lossless.  Boundary behaviour of
``TileGrid.tile_of`` / ``TileReservations.slot_of`` (box edges, exact
tile borders, negative times) is pinned here too.
"""

import math

import numpy as np
import pytest

from repro.geometry.tiles import TileFootprint, TileGrid, TileReservations
from tests.tile_reference import DictTileReservations


class TestTileFootprint:
    def test_round_trip_from_cells(self):
        cells = {((0, 0), 3), ((1, 5), 3), ((7, 7), 4), ((2, 2), 9)}
        fp = TileFootprint.from_cells(cells, n=8)
        assert fp.cell_count == len(cells)
        assert len(fp) == len(cells)
        assert fp.cells() == cells
        assert set(fp) == cells

    def test_empty(self):
        fp = TileFootprint.from_cells([], n=8)
        assert fp.cell_count == 0
        assert not fp
        assert fp.cells() == set()

    def test_duplicates_collapse(self):
        fp = TileFootprint.from_cells([((1, 1), 2), ((1, 1), 2)], n=4)
        assert fp.cell_count == 1

    def test_negative_slots_supported(self):
        cells = {((0, 1), -5), ((3, 3), -2)}
        fp = TileFootprint.from_cells(cells, n=4)
        assert fp.cells() == cells
        assert fp.s0 == -5

    def test_out_of_grid_tile_rejected(self):
        with pytest.raises(ValueError):
            TileFootprint.from_cells([((4, 0), 1)], n=4)
        with pytest.raises(ValueError):
            TileFootprint.from_cells([((0, -1), 1)], n=4)

    def test_large_grid_crosses_word_boundaries(self):
        n = 24  # 576 tiles -> 9 words
        cells = {((i, (3 * i) % n), i % 5) for i in range(n)}
        fp = TileFootprint.from_cells(cells, n=n)
        assert fp.cells() == cells

    def test_bad_masks_rejected(self):
        with pytest.raises(ValueError):
            TileFootprint(4, 0, np.zeros((2, 1), dtype=np.int64))


def random_workload(rng, n, n_ops=400):
    """A randomised op sequence driven against both implementations."""
    ops = []
    for _ in range(n_ops):
        kind = rng.choice(
            ["commit", "conflicts", "release", "release_stale", "purge"],
            p=[0.35, 0.25, 0.15, 0.1, 0.15],
        )
        vid = int(rng.integers(0, 12))
        if kind in ("commit", "conflicts"):
            count = int(rng.integers(1, 30))
            cells = [
                (
                    (int(rng.integers(0, n)), int(rng.integers(0, n))),
                    int(rng.integers(-3, 80)),
                )
                for _ in range(count)
            ]
            ops.append((kind, vid, cells))
        elif kind == "release":
            ops.append((kind, vid, None))
        elif kind == "release_stale":
            ops.append((kind, int(rng.integers(-5, 60)), None))
        else:
            ops.append((kind, float(rng.uniform(-1.0, 6.0)), None))
    return ops


class TestBitmapVsDictDifferential:
    @pytest.mark.parametrize("seed,n", [(1, 16), (2, 16), (3, 24), (4, 5), (5, 70)])
    def test_random_workloads_agree(self, seed, n):
        grid_a = TileGrid(1.2, n)
        grid_b = TileGrid(1.2, n)
        bitmap = TileReservations(grid_a, slot=0.1)
        ref = DictTileReservations(grid_b, slot=0.1)
        rng = np.random.default_rng(seed)
        for kind, arg, cells in random_workload(rng, n):
            if kind == "commit":
                conflict_a = bitmap.conflicts(cells, arg)
                conflict_b = ref.conflicts(cells, arg)
                assert conflict_a == conflict_b
                if conflict_b:
                    with pytest.raises(ValueError):
                        bitmap.commit(cells, arg)
                    with pytest.raises(ValueError):
                        ref.commit(cells, arg)
                else:
                    bitmap.commit(cells, arg)
                    ref.commit(cells, arg)
            elif kind == "conflicts":
                assert bitmap.conflicts(cells, arg) == ref.conflicts(cells, arg)
            elif kind == "release":
                assert bitmap.release(arg) == ref.release(arg)
            elif kind == "release_stale":
                assert bitmap.release_stale(arg) == ref.release_stale(arg)
            else:
                assert bitmap.purge_before(arg) == ref.purge_before(arg)
            assert bitmap.claim_count == ref.claim_count
            assert bitmap.purged_total == ref.purged_total

    def test_footprint_and_iterable_inputs_agree(self):
        """The bitmap book accepts both cell iterables and footprints."""
        grid = TileGrid(1.2, 16)
        res = TileReservations(grid, slot=0.1)
        cells = [((1, 2), 5), ((3, 4), 6)]
        fp = TileFootprint.from_cells(cells, 16)
        res.commit(fp, vehicle_id=1)
        assert res.conflicts(cells, vehicle_id=2)
        assert res.conflicts(fp, vehicle_id=2)
        assert not res.conflicts(fp, vehicle_id=1)
        assert res.release(1) == 2

    def test_mismatched_grid_footprint_rejected(self):
        res = TileReservations(TileGrid(1.2, 16), slot=0.1)
        fp = TileFootprint.from_cells([((1, 1), 0)], n=8)
        with pytest.raises(ValueError):
            res.commit(fp, vehicle_id=1)


class TestReleaseStaleIncremental:
    """Satellite: the watchdog scan is O(vehicles), not O(claims)."""

    def test_stale_vehicle_released_fresh_kept(self):
        res = TileReservations(TileGrid(1.2, 16), slot=0.1)
        res.commit([((1, 1), 5), ((2, 2), 8)], vehicle_id=1)   # all past
        res.commit([((3, 3), 5), ((4, 4), 90)], vehicle_id=2)  # future claim
        assert res.release_stale(50) == 1
        assert res.claim_count == 2
        assert not res.conflicts([((1, 1), 5)], vehicle_id=9)
        assert res.conflicts([((4, 4), 90)], vehicle_id=9)

    def test_max_slot_tracks_commits_incrementally(self):
        res = TileReservations(TileGrid(1.2, 16), slot=0.1)
        res.commit([((1, 1), 5)], vehicle_id=1)
        assert res._max_slot[1] == 5
        res.commit([((2, 2), 42)], vehicle_id=1)
        assert res._max_slot[1] == 42
        res.commit([((3, 3), 7)], vehicle_id=1)  # lower slot: max unchanged
        assert res._max_slot[1] == 42
        assert res.release_stale(42) == 0
        assert res.release_stale(43) == 1

    def test_purge_updates_max_slot_index(self):
        """A fully purged vehicle drops out of the watchdog scan."""
        res = TileReservations(TileGrid(1.2, 16), slot=0.1)
        res.commit([((1, 1), 3)], vehicle_id=1)
        res.purge_before(1.0)  # slot 3 < cutoff 10: claim purged
        assert res.claim_count == 0
        assert 1 not in res._max_slot
        assert res.release_stale(100) == 0


class TestTileOfBoundaries:
    """Satellite: box-edge and exact-border behaviour of tile_of."""

    def make_grid(self):
        return TileGrid(1.2, 16)  # tile_size 0.075, half box 0.6

    def test_centre_of_box(self):
        assert self.make_grid().tile_of(0.0, 0.0) == (8, 8)

    def test_min_corner_inclusive(self):
        assert self.make_grid().tile_of(-0.6, -0.6) == (0, 0)

    def test_max_corner_exclusive(self):
        grid = self.make_grid()
        assert grid.tile_of(0.6, 0.6) is None
        assert grid.tile_of(0.6 - 1e-9, 0.6 - 1e-9) == (15, 15)

    def test_outside_each_edge(self):
        grid = self.make_grid()
        assert grid.tile_of(-0.61, 0.0) is None
        assert grid.tile_of(0.0, -0.61) is None
        assert grid.tile_of(0.61, 0.0) is None
        assert grid.tile_of(0.0, 0.61) is None

    def test_exact_interior_tile_border(self):
        """A point on a tile border belongs to the higher tile."""
        grid = self.make_grid()
        ts = grid.tile_size
        x = -0.6 + 4 * ts  # border between tiles 3 and 4
        assert grid.tile_of(x, 0.0) == (4, 8)
        assert grid.tile_of(x - 1e-12, 0.0) == (3, 8)

    def test_float_truncation_clamped_at_far_edge(self):
        """Points a hair inside the far edge never index past n-1."""
        grid = self.make_grid()
        tile = grid.tile_of(np.nextafter(0.6, 0.0), 0.0)
        assert tile is not None and tile[0] == 15


class TestSlotOfBoundaries:
    """Satellite: slot_of at exact boundaries and negative times."""

    def make_reservations(self):
        return TileReservations(TileGrid(1.2, 16), slot=0.1)

    def test_zero_and_exact_boundaries(self):
        res = self.make_reservations()
        assert res.slot_of(0.0) == 0
        assert res.slot_of(0.1) == 1
        assert res.slot_of(0.2) == 2
        assert res.slot_of(0.3) == 2  # 0.3/0.1 = 2.9999... in float64

    def test_just_below_boundary(self):
        res = self.make_reservations()
        assert res.slot_of(0.1 - 1e-12) == 0

    def test_negative_times_floor(self):
        res = self.make_reservations()
        assert res.slot_of(-0.05) == -1
        assert res.slot_of(-0.1) == -1
        assert res.slot_of(-0.11) == -2

    def test_matches_math_floor(self):
        res = self.make_reservations()
        for t in np.linspace(-3.0, 3.0, 241):
            assert res.slot_of(float(t)) == int(math.floor(t / 0.1))


class TestPurgeCountersBitmap:
    """Satellite: purge_visited/purged_total invariants, bitmap backend."""

    def make_reservations(self):
        return TileReservations(TileGrid(1.2, 16), slot=0.1)

    def test_counters_start_zero(self):
        res = self.make_reservations()
        assert res.purge_visited == 0 and res.purged_total == 0

    def test_visited_equals_purged_when_all_dead(self):
        """The bitmap walk touches exactly the dead cells."""
        res = self.make_reservations()
        res.commit([((i, i), i) for i in range(8)], vehicle_id=1)
        assert res.purge_before(0.8) == 8
        assert res.purge_visited == 8
        assert res.purged_total == 8

    def test_counters_monotone_and_cumulative(self):
        res = self.make_reservations()
        res.commit([((1, 1), 0), ((2, 2), 10), ((3, 3), 20)], vehicle_id=1)
        res.purge_before(0.5)
        assert res.purged_total == 1
        res.purge_before(1.5)
        assert res.purged_total == 2
        res.purge_before(1.0)  # backward cutoff: no-op, counters keep
        assert res.purged_total == 2
        assert res.purge_visited == res.purged_total

    def test_released_cells_not_counted_by_purge(self):
        res = self.make_reservations()
        res.commit([((1, 1), 2), ((2, 2), 3)], vehicle_id=1)
        assert res.release(1) == 2
        assert res.purge_before(10.0) == 0
        assert res.purged_total == 0

    def test_claim_count_conserved(self):
        """commit adds, release/purge subtract; never negative."""
        res = self.make_reservations()
        res.commit([((1, 1), 2), ((2, 2), 60)], vehicle_id=1)
        res.commit([((3, 3), 2)], vehicle_id=2)
        assert res.claim_count == 3
        assert res.purge_before(1.0) == 2
        assert res.claim_count == 1
        assert res.release(1) == 1
        assert res.claim_count == 0
        assert res.release(2) == 0

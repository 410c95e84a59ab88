"""Differential and regression tests for the optimised tile hot path.

The windowed + cached footprints — one pose through
:meth:`TileGrid.tiles_for_pose`, or many through one
:meth:`TileGrid.footprints_for_keys` call — must hold *exactly* the
tiles of the seed full-meshgrid rasteriser
(:func:`tests.tile_reference.tiles_for_pose_meshgrid`), and
:meth:`TileReservations.purge_before` must cost O(dead cells), not
O(live claims).
"""

import math

import numpy as np
import pytest

from repro.geometry.tiles import TileFootprint, TileGrid, TileReservations
from tests.tile_reference import tiles_for_pose_meshgrid


def random_poses(rng, count, box):
    """Randomised poses, including ones partially/fully outside the box."""
    for _ in range(count):
        yield dict(
            x=float(rng.uniform(-box, box)),
            y=float(rng.uniform(-box, box)),
            heading=float(rng.uniform(0.0, 2.0 * math.pi)),
            length=float(rng.uniform(0.1, 1.2)),
            width=float(rng.uniform(0.05, 0.6)),
            buffer=float(rng.choice([0.0, 0.075, 0.45, 1.0])),
        )


class TestWindowedDifferential:
    @pytest.mark.parametrize(
        "box,n", [(1.2, 16), (1.2, 24), (2.0, 5), (3.0, 48), (1.0, 1)]
    )
    def test_matches_meshgrid_on_random_poses(self, box, n):
        grid = TileGrid(box, n)
        rng = np.random.default_rng(n * 1000 + 17)
        for pose in random_poses(rng, 200, box):
            fast = grid.tiles_for_pose(**pose)
            reference = tiles_for_pose_meshgrid(grid, **pose)
            assert fast == reference, pose

    def test_matches_meshgrid_with_cache_disabled(self):
        grid = TileGrid(1.2, 16, cache_size=0)
        rng = np.random.default_rng(5)
        for pose in random_poses(rng, 100, 1.2):
            assert grid.tiles_for_pose(**pose) == tiles_for_pose_meshgrid(
                grid, **pose
            )

    def test_axis_aligned_and_cardinal_headings(self):
        grid = TileGrid(1.2, 16)
        for heading in (0.0, math.pi / 2, math.pi, -math.pi / 2, 2 * math.pi):
            pose = dict(x=0.1, y=-0.2, heading=heading, length=0.568,
                        width=0.296, buffer=0.075)
            assert grid.tiles_for_pose(**pose) == tiles_for_pose_meshgrid(
                grid, **pose
            )

    @pytest.mark.parametrize("cache_size", [0, 2])
    def test_batch_matches_meshgrid(self, cache_size):
        """One lookup over many poses: inside the box, straddling one
        of its edges and far outside it, in turn, so empty windows fall
        between non-empty ones; the last pose repeats the first."""
        grid = TileGrid(1.2, 16, cache_size=cache_size)
        size = dict(length=0.568, width=0.296, buffer=0.075)
        rng = np.random.default_rng(29)
        poses = []
        for k in range(60):
            if k % 3 == 0:  # inside
                x, y = rng.uniform(-0.5, 0.5, 2)
            elif k % 3 == 1:  # straddling an edge
                x = rng.choice([-0.6, 0.6]) + rng.uniform(-0.15, 0.15)
                y = rng.uniform(-0.6, 0.6)
                if rng.integers(2):
                    x, y = y, x
            else:  # far outside
                x, y = rng.choice([-1.0, 1.0], 2) * rng.uniform(5.0, 50.0, 2)
            heading = rng.uniform(0.0, 2.0 * math.pi)
            # On the 1e-9 key grid, so key and reference see one pose.
            poses.append(tuple(round(float(v), 9) for v in (x, y, heading)))
        poses.append(poses[0])
        xs, ys, headings = zip(*poses)
        bitmaps = grid.footprints_for_keys(
            grid.pose_keys(xs, ys, headings, **size)
        )
        assert len(bitmaps) == len(poses)
        for (x, y, heading), bitmap in zip(poses, bitmaps):
            cells = TileFootprint(grid.n, 0, bitmap[None, :]).cells()
            want = tiles_for_pose_meshgrid(grid, x, y, heading, **size)
            assert {tile for tile, _ in cells} == want, (x, y, heading)
        empty = [not bitmap.any() for bitmap in bitmaps]
        assert not any(empty[0::3]) and all(empty[2::3])
        if cache_size:
            assert (grid.cache_hits, grid.cache_misses) == (1, len(poses) - 1)
            assert len(grid._cache) == 2

    def test_far_outside_box_is_empty(self):
        grid = TileGrid(1.2, 16)
        assert grid.tiles_for_pose(50.0, 50.0, 0.3, 0.5, 0.3) == frozenset()

    def test_tests_fewer_cells_than_meshgrid(self):
        """The windowed sweep does O(footprint), not O(n^2), work."""
        grid = TileGrid(1.2, 48, cache_size=0)
        grid.tiles_for_pose(0.0, 0.0, 0.3, 0.2, 0.1)
        assert 0 < grid.cells_tested < grid.num_tiles / 4

    def test_validation_still_raised(self):
        grid = TileGrid(1.2, 16)
        with pytest.raises(ValueError):
            grid.tiles_for_pose(0, 0, 0, -1.0, 0.3)
        with pytest.raises(ValueError):
            grid.tiles_for_pose(0, 0, 0, 0.5, 0.3, buffer=-0.1)


class TestFootprintCache:
    def test_repeat_pose_hits_cache(self):
        grid = TileGrid(1.2, 16)
        pose = (0.1, 0.2, 0.3, 0.568, 0.296, 0.075)
        first = grid.tiles_for_pose(*pose)
        assert grid.cache_misses == 1 and grid.cache_hits == 0
        second = grid.tiles_for_pose(*pose)
        assert grid.cache_hits == 1
        assert first == second
        assert grid.cache_hit_rate == pytest.approx(0.5)

    def test_quantised_key_collapses_float_noise(self):
        grid = TileGrid(1.2, 16)
        grid.tiles_for_pose(0.1, 0.2, 0.3, 0.568, 0.296)
        grid.tiles_for_pose(0.1 + 1e-13, 0.2, 0.3, 0.568, 0.296)
        assert grid.cache_hits == 1

    def test_lru_eviction_bounds_cache(self):
        grid = TileGrid(1.2, 16, cache_size=2)
        for k in range(5):
            grid.tiles_for_pose(0.01 * k, 0.0, 0.0, 0.5, 0.3)
        assert len(grid._cache) <= 2
        # Most recent entry still cached.
        grid.tiles_for_pose(0.04, 0.0, 0.0, 0.5, 0.3)
        assert grid.cache_hits == 1

    def test_cache_disabled(self):
        grid = TileGrid(1.2, 16, cache_size=0)
        pose = (0.1, 0.2, 0.3, 0.568, 0.296)
        grid.tiles_for_pose(*pose)
        grid.tiles_for_pose(*pose)
        assert grid.cache_hits == 0 and grid.cache_misses == 0
        assert grid.cache_hit_rate == 0.0

    def test_cache_clear(self):
        grid = TileGrid(1.2, 16)
        pose = (0.1, 0.2, 0.3, 0.568, 0.296)
        grid.tiles_for_pose(*pose)
        grid.cache_clear()
        grid.tiles_for_pose(*pose)
        assert grid.cache_misses == 2


class TestPurgeIndex:
    def make_reservations(self):
        return TileReservations(TileGrid(1.2, 16), slot=0.1)

    def test_purge_cost_scales_with_dead_not_live(self):
        res = self.make_reservations()
        # A big *live* population far in the future...
        live = [((i % 16, i // 16 % 16), 1000 + i) for i in range(2000)]
        res.commit(live, vehicle_id=1)
        # ...and a small dead one in the past.
        dead = [((i, i), 5) for i in range(8)]
        res.commit(dead, vehicle_id=2)
        count = res.purge_before(5.0)  # cutoff slot 50
        assert count == len(dead)
        # Regression guard: purge examined exactly the dead cells, no
        # matter how many live claims exist.
        assert res.purge_visited == len(dead)
        assert res.claim_count == len(live)

    def test_purge_with_nothing_dead_is_free(self):
        res = self.make_reservations()
        res.commit([((1, 1), 100), ((2, 2), 200)], vehicle_id=1)
        assert res.purge_before(0.5) == 0
        assert res.purge_visited == 0

    def test_purge_empty_table(self):
        res = self.make_reservations()
        assert res.purge_before(10.0) == 0

    def test_purge_removes_from_all_indexes(self):
        res = self.make_reservations()
        res.commit([((1, 1), 1), ((2, 2), 50)], vehicle_id=7)
        assert res.purge_before(2.0) == 1
        assert res.claim_count == 1
        assert not res.conflicts([((1, 1), 1)], vehicle_id=8)
        assert res.conflicts([((2, 2), 50)], vehicle_id=8)
        # Release after purge only counts what the vehicle still holds.
        assert res.release(7) == 1

    def test_release_then_purge_does_not_double_count(self):
        res = self.make_reservations()
        res.commit([((1, 1), 1), ((2, 2), 1)], vehicle_id=3)
        assert res.release(3) == 2
        assert res.purge_before(10.0) == 0

    def test_commit_below_purge_floor_is_purgeable(self):
        res = self.make_reservations()
        res.commit([((1, 1), 100)], vehicle_id=1)
        res.purge_before(5.0)  # floor -> slot 50
        res.commit([((3, 3), 10)], vehicle_id=2)  # below the old floor
        assert res.purge_before(6.0) == 1
        assert res.claim_count == 1

    def test_repeated_purges_are_idempotent(self):
        res = self.make_reservations()
        res.commit([((1, 1), 5)], vehicle_id=1)
        assert res.purge_before(2.0) == 1
        assert res.purge_before(2.0) == 0
        assert res.purge_before(3.0) == 0
        assert res.purged_total == 1

    def test_negative_cutoff_is_noop(self):
        res = self.make_reservations()
        res.commit([((1, 1), 5)], vehicle_id=1)
        assert res.purge_before(-10.0) == 0
        assert res.claim_count == 1

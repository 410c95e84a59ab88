"""The quantised AIM trajectory sweep against its exact reference.

:meth:`AimIM.simulate_cells` snaps poses to quantised tables
(``POSE_QUANT``); :func:`tests.tile_reference.simulate_cells_scalar`
is the exact pose-at-a-time loop the seed shipped.  The quantised
sweep's :class:`TileFootprint` must claim a *superset* of the exact
sweep's cells for every request (snapping poses may only grow the
footprint, never shrink it — shrinking would under-reserve and break
AIM's safety argument), over the same time-slot span.
"""

import math

import numpy as np
import pytest

from repro.core import make_im
from repro.core.aim import _PoseTable
from repro.des import Environment
from repro.geometry import IntersectionGeometry, TileFootprint
from repro.network.channel import Channel
from repro.vehicle import VehicleSpec
from tests.tile_reference import simulate_cells_scalar


class FakeInfo:
    def __init__(self, movement, spec, buffer):
        self.movement = movement
        self.spec = spec
        self.buffer = buffer
        self.vehicle_id = 0


def make_aim():
    env = Environment()
    channel = Channel(env)
    geometry = IntersectionGeometry()
    return make_im("aim", env, channel, geometry), geometry


def random_requests(geometry, rng, count):
    spec = VehicleSpec()
    movements = geometry.movements
    for _ in range(count):
        movement = movements[int(rng.integers(len(movements)))]
        info = FakeInfo(movement, spec, float(rng.choice([0.0, 0.075, 0.15])))
        accelerate = bool(rng.integers(2))
        yield dict(
            info=info,
            toa=float(rng.uniform(0.2, 18.0)),
            vc=float(rng.uniform(0.15, 1.5)),
            accelerate=accelerate,
            standoff=float(rng.uniform(0.0, 0.3)) if accelerate else 0.0,
        )


class TestCoarseSuperset:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_batch_footprint_superset_of_scalar(self, seed):
        im, geometry = make_aim()
        rng = np.random.default_rng(seed)
        growths = []
        for req in random_requests(geometry, rng, 60):
            exact = simulate_cells_scalar(im, **req)
            coarse = im.simulate_cells(**req)
            assert isinstance(coarse, TileFootprint)
            coarse_cells = coarse.cells()
            missing = exact - coarse_cells
            assert not missing, (req["info"].movement.key, sorted(missing)[:4])
            growths.append(len(coarse_cells) / max(len(exact), 1))
        # Conservative, but not absurdly so: the padding costs a
        # bounded fraction of extra cells, not multiples.
        assert np.mean(growths) < 1.6

    def test_same_slot_span_as_scalar(self):
        """Snapping quantises poses, never timestamps."""
        im, geometry = make_aim()
        rng = np.random.default_rng(21)
        for req in random_requests(geometry, rng, 30):
            exact = simulate_cells_scalar(im, **req)
            coarse = im.simulate_cells(**req)
            exact_slots = {slot for _, slot in exact}
            coarse_slots = {slot for _, slot in coarse.cells()}
            assert exact_slots == coarse_slots

    def test_footprint_usable_by_reservations(self):
        im, geometry = make_aim()
        info = FakeInfo(geometry.movements[0], VehicleSpec(), 0.075)
        fp = im.simulate_cells(info, toa=1.0, vc=0.5, accelerate=False)
        res = im.reservations
        assert not res.conflicts(fp, vehicle_id=1)
        res.commit(fp, vehicle_id=1)
        assert res.claim_count == fp.cell_count
        assert res.conflicts(fp, vehicle_id=2)
        assert res.release(1) == fp.cell_count


class TestPoseTable:
    def test_snap_error_bounded(self):
        geometry = IntersectionGeometry()
        path = geometry.path(geometry.movements[0])
        quant = 0.0375
        table = _PoseTable(path, quant)
        positions = np.linspace(0.0, path.length, 533)
        idx = np.array([table.index_of(s) for s in positions.tolist()])
        snapped = np.minimum(idx * quant, path.length)
        assert np.all(np.abs(positions - snapped) <= quant / 2 + 1e-12)

    def test_straight_path_has_negligible_heading_deviation(self):
        geometry = IntersectionGeometry()
        from repro.geometry import Approach, Movement, Turn

        path = geometry.path(Movement(Approach.SOUTH, Turn.STRAIGHT))
        table = _PoseTable(path, 0.0375)
        # linspace rounding perturbs the polyline deltas by ~1 ulp, so
        # the bound is float noise rather than an exact zero.
        assert table.dtheta_max < 1e-12

    def test_turn_path_heading_deviation_small_but_positive(self):
        geometry = IntersectionGeometry()
        from repro.geometry import Approach, Movement, Turn

        path = geometry.path(Movement(Approach.SOUTH, Turn.LEFT))
        table = _PoseTable(path, 0.0375)
        # A quant/2 = 18.75 mm window on a 0.75 m-radius arc subtends
        # ~2.9 deg; the piecewise-constant-heading bound sits near it.
        assert 0.0 < table.dtheta_max < math.radians(8.0)

    def test_tables_cached_per_movement(self):
        im, geometry = make_aim()
        info = FakeInfo(geometry.movements[0], VehicleSpec(), 0.075)
        im.simulate_cells(info, toa=1.0, vc=0.5, accelerate=False)
        table = im._pose_tables[info.movement]
        im.simulate_cells(info, toa=2.0, vc=0.7, accelerate=False)
        assert im._pose_tables[info.movement] is table

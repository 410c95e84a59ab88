"""Bit-for-bit reference for AIM's one-pass scalar sweep.

:meth:`AimIM.simulate_cells` walks a request's timesteps in one scalar
loop, reads each pose's footprint-cache key from its
:class:`~repro.core.aim._PoseTable` (rounded once per table entry) and
ORs each run of equal slot once.  The functions below are the
vectorised sweep it replaced: chunked ``np.add.accumulate`` timesteps,
array snapping, a key rounded per pose (:func:`ref_key_for`) and two
``np.bitwise_or.at`` passes.  They live here, not in ``src/``,
as the reference the production sweep must equal exactly: the same
``s0``, the same masks bit for bit, and the same footprint-cache hits,
misses, ``cells_tested`` and LRU order, also on a two-entry cache
where eviction order matters.
"""

import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import make_im
from repro.des import Environment
from repro.geometry import IntersectionGeometry, TileFootprint, TileGrid
from repro.network.channel import Channel
from repro.vehicle import VehicleSpec

GEOMETRY = IntersectionGeometry()
MOVEMENTS = GEOMETRY.movements


class FakeInfo:
    def __init__(self, movement, spec, buffer):
        self.movement = movement
        self.spec = spec
        self.buffer = buffer
        self.vehicle_id = 0


# -- the reference -------------------------------------------------------------

def ref_simulate_timesteps(im, toa, vc, accelerate, standoff, spec,
                           path_length, length, buffer):
    """The processed timesteps as arrays, in 128-step chunks."""
    v_max = min(spec.v_max, im.config.v_max)
    step = im.aim_config.sim_step
    if accelerate:
        t_ramp = max((v_max - vc) / spec.a_max, 0.0)
        ramp_dist = vc * t_ramp + 0.5 * spec.a_max * t_ramp ** 2
    chunk = 128
    max_steps = int(math.ceil(60.0 / step)) + 4
    ts_parts, sf_parts = [], []
    t_last = toa
    produced = 0
    while True:
        count = min(chunk, max_steps - produced)
        first = toa if produced == 0 else t_last + step
        ts = np.add.accumulate(np.concatenate(([first], np.full(count - 1, step))))
        t_last = float(ts[-1])
        produced += count
        dt_rel = ts - toa
        if accelerate:
            s_front = np.where(
                dt_rel <= t_ramp,
                vc * dt_rel + 0.5 * spec.a_max * dt_rel ** 2,
                ramp_dist + v_max * (dt_rel - t_ramp),
            )
            s_front = s_front - standoff
        else:
            s_front = vc * dt_rel
        stop = (s_front - length - buffer > path_length) | (dt_rel > 60.0)
        if stop.any():
            n = int(np.argmax(stop))
            ts_parts.append(ts[:n])
            sf_parts.append(s_front[:n])
            break
        ts_parts.append(ts)
        sf_parts.append(s_front)
        if produced >= max_steps:
            break
    return np.concatenate(ts_parts), np.concatenate(sf_parts)


def ref_snap(table, arc_positions):
    return np.clip(
        np.rint(arc_positions / table.quant).astype(np.int64),
        0, table.n_entries - 1,
    )


def ref_key_for(x, y, heading, length, width, buffer, pad):
    """A pose's footprint-cache key, all seven fields rounded per pose."""
    return tuple(round(v, 9) for v in (x, y, heading, length, width, buffer, pad))


def ref_footprints_for_poses(grid, xs, ys, headings, length, width, buffer, pad):
    """The batch lookup with every key rounded per pose."""
    count = len(xs)
    entries = [None] * count
    keys = [
        ref_key_for(float(xs[k]), float(ys[k]), float(headings[k]),
                    length, width, buffer, pad)
        for k in range(count)
    ]
    pending = OrderedDict()
    for k, key in enumerate(keys):
        if grid.cache_size:
            cached = grid._cache.get(key)
            if cached is not None:
                grid.cache_hits += 1
                grid._cache.move_to_end(key)
                entries[k] = cached
                continue
            waiting = pending.get(key)
            if waiting is not None:
                grid.cache_hits += 1
                waiting.append(k)
                continue
            grid.cache_misses += 1
            pending[key] = [k]
        else:
            pending.setdefault(key, []).append(k)
    if pending:
        miss_keys = list(pending)
        computed = grid._rasterise_poses(miss_keys)
        for key, entry in zip(miss_keys, computed):
            for k in pending[key]:
                entries[k] = entry
            if grid.cache_size:
                grid._cache_store(key, entry)
    return entries


def ref_simulate_cells(im, info, toa, vc, accelerate, standoff=0.0):
    spec = info.spec
    path = im.geometry.path(info.movement)
    length = spec.length
    buffer = info.buffer
    grid = im.reservations.grid
    ts, s_front = ref_simulate_timesteps(
        im, toa, vc, accelerate, standoff, spec, path.length, length, buffer
    )
    if len(ts) == 0:
        return TileFootprint(grid.n, 0, np.zeros((0, grid.words), dtype=np.uint64))
    centre_s = s_front - length / 2.0
    clamped = np.minimum(np.maximum(centre_s, 0.0), path.length)
    table = im._pose_table(info.movement)
    idx = ref_snap(table, clamped)
    grow = grid.tile_size * math.sqrt(2.0) / 2.0
    radius = math.hypot(length / 2.0 + buffer + grow, spec.width / 2.0 + grow)
    pad = table.quant / 2.0 + table.dtheta_max * radius + 1e-9
    entries = ref_footprints_for_poses(
        grid, table.xs[idx], table.ys[idx], table.headings[idx],
        length, spec.width, buffer, pad,
    )
    slots = np.floor(ts / im.reservations.slot).astype(np.int64)
    s0 = int(slots.min())
    masks = np.zeros((int(slots.max()) - s0 + 2, grid.words), dtype=np.uint64)
    bitmaps = np.stack(entries)
    rel = slots - s0
    np.bitwise_or.at(masks, rel, bitmaps)
    np.bitwise_or.at(masks, rel + 1, bitmaps)
    return TileFootprint(grid.n, s0, masks)


# -- the comparison ------------------------------------------------------------

def make_pair(cache_size=None):
    """A production IM and a reference IM on identical fresh grids."""
    pair = []
    for _ in range(2):
        env = Environment()
        im = make_im("aim", env, Channel(env), GEOMETRY)
        if cache_size is not None:
            old = im.reservations.grid
            im.reservations.grid = TileGrid(old.box, old.n, cache_size=cache_size)
        pair.append(im)
    return pair


def grid_state(im):
    grid = im.reservations.grid
    return (grid.cache_hits, grid.cache_misses, grid.cells_tested,
            list(grid._cache))


def assert_same_sweeps(fast, ref, requests):
    for req in requests:
        got = fast.simulate_cells(**req)
        want = ref_simulate_cells(ref, **req)
        assert got.s0 == want.s0, req
        assert got.masks.dtype == want.masks.dtype == np.uint64
        assert got.masks.shape == want.masks.shape, req
        assert np.array_equal(got.masks, want.masks), req
        assert grid_state(fast) == grid_state(ref), req


SPEC = VehicleSpec()

#: One request of each kind; the crawl runs into the 60-s guard and the
#: negative standoff puts the rear past the exit before the first pose.
KINDS = {
    "launch": dict(toa=3.1, vc=0.0, accelerate=True, standoff=0.12),
    "launch-moving": dict(toa=0.7, vc=0.6, accelerate=True, standoff=0.0),
    "constant": dict(toa=5.03, vc=0.9, accelerate=False),
    "crawl": dict(toa=1.0, vc=0.01, accelerate=False),
    "empty": dict(toa=2.0, vc=0.5, accelerate=True, standoff=-5.0),
}


@st.composite
def sweep_requests(draw):
    movement = MOVEMENTS[draw(st.integers(0, len(MOVEMENTS) - 1))]
    buffer = draw(st.sampled_from([0.0, 0.075, 0.078, 0.15]))
    kind = draw(st.sampled_from(["launch", "constant", "crawl", "empty"]))
    toa = draw(st.floats(0.0, 20.0))
    if kind == "launch":
        req = dict(vc=draw(st.floats(0.0, 1.5)), accelerate=True,
                   standoff=draw(st.floats(0.0, 0.3)))
    elif kind == "constant":
        req = dict(vc=draw(st.floats(0.15, 1.5)), accelerate=False)
    elif kind == "crawl":
        req = dict(vc=draw(st.floats(0.0, 0.03)), accelerate=False)
    else:
        req = dict(vc=draw(st.floats(0.0, 1.5)), accelerate=True,
                   standoff=draw(st.floats(-8.0, -3.0)))
    return dict(info=FakeInfo(movement, SPEC, buffer), toa=toa, **req)


class TestSnapMatchesReference:
    @pytest.mark.parametrize("m", range(len(MOVEMENTS)))
    def test_index_of(self, m):
        """Clamping plus half-to-even rounding, as the array snap did:
        every half-way point between entries, each entry, both ends
        and beyond them."""
        im, _ = make_pair()
        table = im._pose_table(MOVEMENTS[m])
        q = table.quant
        positions = [-1.0, -0.0, table.length, table.length + 1.0]
        for k in range(table.n_entries + 1):
            positions += [k * q, (k + 0.5) * q, math.nextafter((k + 0.5) * q, 0.0)]
        clamped = np.minimum(np.maximum(np.array(positions), 0.0), table.length)
        want = ref_snap(table, clamped).tolist()
        assert [table.index_of(s) for s in positions] == want
        # Entry 0, as the array snap's NaN -> INT64_MIN -> clip gave.
        assert table.index_of(math.nan) == 0


class TestSweepMatchesReference:
    @pytest.mark.parametrize("cache_size", [None, 2])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_movement(self, kind, cache_size):
        fast, ref = make_pair(cache_size)
        requests = [
            dict(info=FakeInfo(m, SPEC, 0.078), **KINDS[kind]) for m in MOVEMENTS
        ]
        # Twice over, so the second pass is served from warm tables.
        assert_same_sweeps(fast, ref, requests + requests)

    def test_vehicle_sizes_bounded(self):
        """Sizes come from requests: each table keeps a bounded number,
        and a size dropped and rebuilt sweeps exactly as before."""
        fast, ref = make_pair()
        movement = MOVEMENTS[5]
        table = fast._pose_table(movement)
        buffers = [0.01 * k for k in range(table.MAX_SIZES + 3)]
        requests = [
            dict(info=FakeInfo(movement, SPEC, b), **KINDS["constant"])
            for b in buffers + buffers[:2]
        ]
        assert_same_sweeps(fast, ref, requests)
        assert len(table._sweeps) == table.MAX_SIZES

    def test_crawl_reaches_the_guard(self):
        fast, _ = make_pair()
        fp = fast.simulate_cells(FakeInfo(MOVEMENTS[0], SPEC, 0.078), **KINDS["crawl"])
        # 60 s of 40-ms steps, all slots present (plus the guard slot).
        assert len(fp.masks) >= 60.0 / fast.reservations.slot

    def test_empty_sweep(self):
        fast, _ = make_pair()
        fp = fast.simulate_cells(FakeInfo(MOVEMENTS[3], SPEC, 0.078), **KINDS["empty"])
        assert fp.masks.shape == (0, fast.reservations.grid.words)
        assert fast.reservations.grid.cache_hits == 0
        assert fast.reservations.grid.cache_misses == 0

    @pytest.mark.parametrize("cache_size", [None, 2])
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.function_scoped_fixture],
    )
    @given(requests=st.lists(sweep_requests(), min_size=1, max_size=12))
    def test_drawn_requests(self, cache_size, requests):
        fast, ref = make_pair(cache_size)
        assert_same_sweeps(fast, ref, requests)

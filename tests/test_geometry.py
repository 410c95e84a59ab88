"""Tests for intersection geometry, conflicts, tiles and collision."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Approach,
    ConflictTable,
    IntersectionGeometry,
    Movement,
    OrientedRect,
    Path,
    TileGrid,
    TileReservations,
    Turn,
    exit_approach,
    rects_overlap,
)
from repro.geometry.collision import REACH_SLACK, beyond_reach, bounding_radius
from repro.vehicle.spec import VehicleInfo, VehicleSpec

#: The body the safety monitor sweeps (every spawned vehicle's spec).
SPEC = VehicleSpec()
#: The four axis-aligned headings, where the monitor's approach and
#: straight-through vehicles sit.
AXIS_HEADINGS = (0.0, math.pi / 2, math.pi, -math.pi / 2)
headings = st.sampled_from(AXIS_HEADINGS) | st.floats(-math.pi, math.pi)


def numpy_point_at(path, s):
    """Reference for :meth:`Path.point_at`: numpy clamp and search."""
    s = float(np.clip(s, 0.0, path.length))
    i = int(np.searchsorted(path.cumlen, s, side="right")) - 1
    i = min(max(i, 0), len(path.points) - 2)
    seg = path._seg_lengths[i]
    frac = 0.0 if seg <= 0 else (s - path.cumlen[i]) / seg
    return path.points[i] + frac * (path.points[i + 1] - path.points[i])


def numpy_heading_at(path, s):
    """Reference for :meth:`Path.heading_at`: numpy clamp and search."""
    s = float(np.clip(s, 0.0, path.length))
    i = int(np.searchsorted(path.cumlen, s, side="right")) - 1
    i = min(max(i, 0), len(path.points) - 2)
    d = path.points[i + 1] - path.points[i]
    return math.atan2(d[1], d[0])


def arc_probes(path, rng):
    """Random, boundary and signed-zero arc positions, plus positions
    past both ends and NaN."""
    probes = [0.0, -0.0, -1e-300, -1.0, path.length + 1.0, math.inf, -math.inf,
              math.nan]
    for c in path.cumlen.tolist():
        probes += [math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)]
    probes += rng.uniform(-0.2, path.length + 0.2, 200).tolist()
    return probes


class TestApproach:
    def test_headings(self):
        assert Approach.SOUTH.heading == pytest.approx(math.pi / 2)
        assert Approach.WEST.heading == pytest.approx(0.0)
        assert Approach.NORTH.heading == pytest.approx(-math.pi / 2)
        assert Approach.EAST.heading == pytest.approx(math.pi)

    def test_exit_approach_straight_is_opposite(self):
        assert exit_approach(Approach.SOUTH, Turn.STRAIGHT) is Approach.NORTH
        assert exit_approach(Approach.EAST, Turn.STRAIGHT) is Approach.WEST

    def test_exit_approach_turns(self):
        # From the south driving north: right exits east, left west.
        assert exit_approach(Approach.SOUTH, Turn.RIGHT) is Approach.EAST
        assert exit_approach(Approach.SOUTH, Turn.LEFT) is Approach.WEST
        assert exit_approach(Approach.WEST, Turn.RIGHT) is Approach.SOUTH
        assert exit_approach(Approach.WEST, Turn.LEFT) is Approach.NORTH


class TestRoutingKernel:
    """Exhaustive table tests for the hop-transition kernel
    (``exit_approach`` / ``Approach.opposite``) the
    corridor router builds on."""

    #: The full 4-approach x 3-turn exit-arm table, written out by hand
    #: from the driving rules (right-hand traffic; a vehicle *from* X
    #: drives away from X): straight exits the opposite arm, right is
    #: 90 deg clockwise from the travel direction, left 90 deg CCW.
    TABLE = {
        (Approach.NORTH, Turn.STRAIGHT): Approach.SOUTH,
        (Approach.NORTH, Turn.RIGHT): Approach.WEST,
        (Approach.NORTH, Turn.LEFT): Approach.EAST,
        (Approach.EAST, Turn.STRAIGHT): Approach.WEST,
        (Approach.EAST, Turn.RIGHT): Approach.NORTH,
        (Approach.EAST, Turn.LEFT): Approach.SOUTH,
        (Approach.SOUTH, Turn.STRAIGHT): Approach.NORTH,
        (Approach.SOUTH, Turn.RIGHT): Approach.EAST,
        (Approach.SOUTH, Turn.LEFT): Approach.WEST,
        (Approach.WEST, Turn.STRAIGHT): Approach.EAST,
        (Approach.WEST, Turn.RIGHT): Approach.SOUTH,
        (Approach.WEST, Turn.LEFT): Approach.NORTH,
    }

    def test_exit_approach_full_table(self):
        for (entry, turn), expected in self.TABLE.items():
            assert exit_approach(entry, turn) is expected, (entry, turn)

    def test_three_turns_cover_three_arms(self):
        for entry in Approach:
            arms = {exit_approach(entry, turn) for turn in Turn}
            assert len(arms) == 3
            assert entry not in arms  # no movement re-exits the entry arm

    def test_opposite_is_involution(self):
        for approach in Approach:
            assert approach.opposite is not approach
            assert approach.opposite.opposite is approach

    def test_opposite_pairs(self):
        assert Approach.NORTH.opposite is Approach.SOUTH
        assert Approach.EAST.opposite is Approach.WEST

    def test_straight_exits_opposite_arm(self):
        for entry in Approach:
            assert exit_approach(entry, Turn.STRAIGHT) is entry.opposite


class TestPath:
    def test_length_of_straight(self):
        path = Path(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert path.length == pytest.approx(5.0)

    def test_point_at_interpolates(self):
        path = Path(np.array([[0.0, 0.0], [10.0, 0.0]]))
        assert path.point_at(4.0) == pytest.approx([4.0, 0.0])

    def test_point_at_clamps(self):
        path = Path(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert path.point_at(-5.0) == pytest.approx([0.0, 0.0])
        assert path.point_at(99.0) == pytest.approx([1.0, 0.0])

    def test_heading_at(self):
        path = Path(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert path.heading_at(0.5) == pytest.approx(math.pi / 4)

    def test_invalid_points(self):
        with pytest.raises(ValueError):
            Path(np.array([[0.0, 0.0]]))

    def test_scalar_lookups_match_numpy_reference_bitwise(self):
        """All twelve movement paths, plus one with a zero-length
        segment (repeated arc-length boundary)."""
        geometry = IntersectionGeometry()
        paths = [geometry.path(m) for m in geometry.movements]
        paths.append(Path(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, -2.0]])))
        rng = np.random.default_rng(12)
        for path in paths:
            for s in arc_probes(path, rng):
                got = [float(x).hex() for x in path.point_at(s)]
                want = [float(x).hex() for x in numpy_point_at(path, s)]
                assert got == want, s
                assert path.heading_at(s).hex() == numpy_heading_at(path, s).hex(), s


class TestIntersectionGeometry:
    @pytest.fixture(scope="class")
    def geometry(self):
        return IntersectionGeometry()

    def test_twelve_movements(self, geometry):
        assert len(geometry.movements) == 12

    def test_straight_path_length_is_box(self, geometry):
        m = Movement(Approach.SOUTH, Turn.STRAIGHT)
        assert geometry.crossing_distance(m) == pytest.approx(1.2, abs=1e-6)

    def test_right_turn_shorter_than_left(self, geometry):
        right = geometry.crossing_distance(Movement(Approach.SOUTH, Turn.RIGHT))
        left = geometry.crossing_distance(Movement(Approach.SOUTH, Turn.LEFT))
        assert right < left
        # Quarter circles with radii box/2 -+ lane/2.
        assert right == pytest.approx((0.6 - 0.225) * math.pi / 2, rel=1e-3)
        assert left == pytest.approx((0.6 + 0.225) * math.pi / 2, rel=1e-3)

    def test_entry_point_on_box_edge(self, geometry):
        entry = geometry.entry_point(Approach.SOUTH)
        assert entry[1] == pytest.approx(-0.6)
        assert entry[0] == pytest.approx(0.225)  # right-hand lane offset

    def test_transmission_point_upstream(self, geometry):
        tp = geometry.transmission_point(Approach.SOUTH)
        assert tp[1] == pytest.approx(-3.6)

    def test_paths_start_at_entry_and_leave_box(self, geometry):
        for movement in geometry.movements:
            path = geometry.path(movement)
            start = path.point_at(0.0)
            end = path.point_at(path.length)
            assert max(abs(start[0]), abs(start[1])) == pytest.approx(0.6, abs=1e-6)
            assert max(abs(end[0]), abs(end[1])) == pytest.approx(0.6, abs=1e-3)

    def test_paths_stay_inside_box(self, geometry):
        for movement in geometry.movements:
            path = geometry.path(movement)
            pts, _ = path.sample(0.05)
            assert np.all(np.abs(pts) <= 0.6 + 1e-6)

    def test_contains(self, geometry):
        assert geometry.contains(0.0, 0.0)
        assert not geometry.contains(0.7, 0.0)
        assert geometry.contains(0.7, 0.0, margin=0.2)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            IntersectionGeometry(box=-1.0)
        with pytest.raises(ValueError):
            IntersectionGeometry(lane_width=0.9, box=1.2)


class TestConflictTable:
    @pytest.fixture(scope="class")
    def table(self):
        return ConflictTable(IntersectionGeometry())

    def test_symmetric(self, table):
        for a in table.geometry.movements:
            for b in table.geometry.movements:
                assert table.conflicts(a, b) == table.conflicts(b, a)

    def test_same_lane_always_conflicts(self, table):
        a = Movement(Approach.SOUTH, Turn.STRAIGHT)
        b = Movement(Approach.SOUTH, Turn.LEFT)
        assert table.conflicts(a, b)
        iv = table.intervals(a, b)[0]
        assert iv.a_in == 0.0
        assert iv.a_out == pytest.approx(table.geometry.crossing_distance(a))

    def test_crossing_straights_conflict(self, table):
        a = Movement(Approach.SOUTH, Turn.STRAIGHT)
        b = Movement(Approach.EAST, Turn.STRAIGHT)
        assert table.conflicts(a, b)

    def test_opposite_straights_do_not_conflict(self, table):
        a = Movement(Approach.SOUTH, Turn.STRAIGHT)
        b = Movement(Approach.NORTH, Turn.STRAIGHT)
        assert not table.conflicts(a, b)

    def test_adjacent_right_turns_compatible(self, table):
        a = Movement(Approach.SOUTH, Turn.RIGHT)
        b = Movement(Approach.NORTH, Turn.RIGHT)
        assert not table.conflicts(a, b)

    def test_opposing_left_turns_conflict(self, table):
        a = Movement(Approach.SOUTH, Turn.LEFT)
        b = Movement(Approach.NORTH, Turn.LEFT)
        assert table.conflicts(a, b)

    def test_interval_bounds_within_paths(self, table):
        for a in table.geometry.movements:
            for b in table.geometry.movements:
                for iv in table.intervals(a, b):
                    assert 0.0 <= iv.a_in <= iv.a_out <= table.geometry.crossing_distance(a) + 1e-6
                    assert 0.0 <= iv.b_in <= iv.b_out <= table.geometry.crossing_distance(b) + 1e-6

    def test_swapped_interval(self, table):
        a = Movement(Approach.SOUTH, Turn.STRAIGHT)
        b = Movement(Approach.EAST, Turn.STRAIGHT)
        iva = table.intervals(a, b)[0]
        ivb = table.intervals(b, a)[0]
        assert iva.a_in == ivb.b_in
        assert iva.b_out == ivb.a_out

    def test_compatible_pairs_nonempty(self, table):
        assert len(table.compatible_pairs()) > 0


class TestTileGrid:
    def test_tile_of_center(self):
        grid = TileGrid(box=1.2, n=12)
        assert grid.tile_of(0.0, 0.0) is not None
        assert grid.tile_of(0.61, 0.0) is None

    def test_tiles_for_pose_covers_vehicle(self):
        grid = TileGrid(box=1.2, n=12)
        tiles = grid.tiles_for_pose(0.0, 0.0, 0.0, length=0.568, width=0.296)
        # Footprint ~0.57 x 0.30 over 0.1 m tiles: at least 6x3 block.
        assert len(tiles) >= 18

    def test_rotation_changes_tiles(self):
        grid = TileGrid(box=1.2, n=24)
        horiz = grid.tiles_for_pose(0.0, 0.0, 0.0, 0.568, 0.296)
        vert = grid.tiles_for_pose(0.0, 0.0, math.pi / 2, 0.568, 0.296)
        assert horiz != vert

    def test_buffer_grows_tile_set(self):
        grid = TileGrid(box=1.2, n=24)
        small = grid.tiles_for_pose(0.0, 0.0, 0.0, 0.568, 0.296, buffer=0.0)
        big = grid.tiles_for_pose(0.0, 0.0, 0.0, 0.568, 0.296, buffer=0.2)
        assert small < big

    def test_conservative_containment(self):
        """Every tile intersecting the rectangle is claimed."""
        grid = TileGrid(box=1.2, n=16)
        tiles = grid.tiles_for_pose(0.1, -0.05, 0.4, 0.568, 0.296)
        rect = OrientedRect(0.1, -0.05, 0.4, 0.568, 0.296)
        # Sample points inside the rect; each must be in a claimed tile.
        rng = np.random.default_rng(0)
        for _ in range(200):
            lon = rng.uniform(-0.284, 0.284)
            lat = rng.uniform(-0.148, 0.148)
            x = 0.1 + lon * math.cos(0.4) - lat * math.sin(0.4)
            y = -0.05 + lon * math.sin(0.4) + lat * math.cos(0.4)
            tile = grid.tile_of(x, y)
            if tile is not None:
                assert tile in tiles


class TestTileReservations:
    def test_commit_and_conflict(self):
        res = TileReservations(TileGrid(1.2, 12), slot=0.1)
        cells = [((0, 0), 5), ((0, 1), 5)]
        assert not res.conflicts(cells, vehicle_id=1)
        res.commit(cells, vehicle_id=1)
        assert res.conflicts(cells, vehicle_id=2)
        assert not res.conflicts(cells, vehicle_id=1)  # own claims ok

    def test_commit_conflicting_raises(self):
        res = TileReservations(TileGrid(1.2, 12))
        res.commit([((0, 0), 1)], vehicle_id=1)
        with pytest.raises(ValueError):
            res.commit([((0, 0), 1)], vehicle_id=2)

    def test_release(self):
        res = TileReservations(TileGrid(1.2, 12))
        res.commit([((0, 0), 1), ((1, 1), 2)], vehicle_id=1)
        assert res.release(1) == 2
        assert not res.conflicts([((0, 0), 1)], vehicle_id=2)

    def test_purge_before(self):
        res = TileReservations(TileGrid(1.2, 12), slot=0.1)
        res.commit([((0, 0), 1), ((0, 0), 100)], vehicle_id=1)
        dropped = res.purge_before(5.0)  # slot 50
        assert dropped == 1
        assert res.claim_count == 1

    def test_slot_of(self):
        res = TileReservations(TileGrid(1.2, 12), slot=0.5)
        assert res.slot_of(0.0) == 0
        assert res.slot_of(0.49) == 0
        assert res.slot_of(0.5) == 1


class TestCollision:
    def test_overlapping_rects(self):
        a = OrientedRect(0.0, 0.0, 0.0, 1.0, 0.5)
        b = OrientedRect(0.4, 0.0, 0.0, 1.0, 0.5)
        assert rects_overlap(a, b)

    def test_separated_rects(self):
        a = OrientedRect(0.0, 0.0, 0.0, 1.0, 0.5)
        b = OrientedRect(2.0, 0.0, 0.0, 1.0, 0.5)
        assert not rects_overlap(a, b)

    def test_rotated_near_miss(self):
        # Two unit squares diagonal to each other: corner gap.
        a = OrientedRect(0.0, 0.0, 0.0, 1.0, 1.0)
        b = OrientedRect(1.2, 1.2, math.pi / 4, 1.0, 1.0)
        assert not rects_overlap(a, b)

    def test_rotated_overlap(self):
        a = OrientedRect(0.0, 0.0, 0.0, 2.0, 0.4)
        b = OrientedRect(0.0, 0.0, math.pi / 2, 2.0, 0.4)
        assert rects_overlap(a, b)

    def test_inflated(self):
        a = OrientedRect(0.0, 0.0, 0.0, 1.0, 0.5)
        grown = a.inflated(0.25)
        assert grown.length == 1.5
        assert grown.width == 1.0

    def test_symmetry_property(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = OrientedRect(*rng.uniform(-1, 1, 2), rng.uniform(0, math.pi), 0.5, 0.3)
            b = OrientedRect(*rng.uniform(-1, 1, 2), rng.uniform(0, math.pi), 0.5, 0.3)
            assert rects_overlap(a, b) == rects_overlap(b, a)

    @given(
        st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, math.pi)
    )
    @settings(max_examples=100, deadline=None)
    def test_rect_overlaps_itself_translated_slightly(self, cx, cy, heading):
        a = OrientedRect(cx, cy, heading, 0.5, 0.3)
        b = OrientedRect(cx + 0.01, cy, heading, 0.5, 0.3)
        assert rects_overlap(a, b)


class TestReach:
    """The monitor skips both separating-axis tests for a pair whose
    bounding circles are apart; that must never hide a contact."""

    @given(
        ax=st.floats(-1.0, 1.0),
        ay=st.floats(-1.0, 1.0),
        heading_a=headings,
        heading_b=headings,
        direction=headings,
        buffer_a=st.floats(0.0, 0.2),
        buffer_b=st.floats(0.0, 0.2),
        # Centre distances packed just outside the bound: on it, a few
        # ulps past it, inside the slack and up to a millimetre beyond.
        excess=st.just(0.0)
        | st.floats(0.0, 1e-12)
        | st.floats(0.0, 2 * REACH_SLACK)
        | st.floats(0.0, 1e-3),
    )
    @settings(max_examples=500, deadline=None)
    def test_beyond_reach_means_no_overlap(
        self, ax, ay, heading_a, heading_b, direction, buffer_a, buffer_b, excess
    ):
        reach_a = bounding_radius(SPEC.length, SPEC.width, buffer_a)
        reach_b = bounding_radius(SPEC.length, SPEC.width, buffer_b)
        distance = reach_a + reach_b + REACH_SLACK + excess
        a = OrientedRect(ax, ay, heading_a, SPEC.length, SPEC.width)
        b = OrientedRect(
            ax + distance * math.cos(direction),
            ay + distance * math.sin(direction),
            heading_b, SPEC.length, SPEC.width,
        )
        gap = math.hypot(a.cx - b.cx, a.cy - b.cy)
        if beyond_reach(gap, reach_a, reach_b):
            assert not rects_overlap(a, b)
            assert not rects_overlap(
                a.inflated_longitudinal(buffer_a),
                b.inflated_longitudinal(buffer_b),
            )

    @pytest.mark.parametrize("buffer", [0.0, VehicleInfo.buffer, 0.2])
    def test_radius_reaches_the_buffered_corner(self, buffer):
        """Corner to corner along the line of centres, footprints a
        nanometre inside the summed radii touch: the bound is tight."""
        reach = bounding_radius(SPEC.length, SPEC.width, buffer)
        corner = math.atan2(SPEC.width / 2.0, SPEC.length / 2.0 + buffer)
        distance = 2.0 * reach - 1e-9
        a = OrientedRect(0.0, 0.0, 0.0, SPEC.length, SPEC.width)
        b = OrientedRect(
            distance * math.cos(corner), distance * math.sin(corner),
            math.pi, SPEC.length, SPEC.width,
        )
        assert not beyond_reach(distance, reach, reach)
        assert rects_overlap(
            a.inflated_longitudinal(buffer), b.inflated_longitudinal(buffer)
        )

"""Tests for the FCFS conflict scheduler."""

import math

import pytest

from repro.core.scheduler import ConflictScheduler, ScheduledCrossing
from repro.geometry import Approach, ConflictTable, IntersectionGeometry, Movement, Turn
from repro.kinematics.arrival import plan_arrival, vt_plan
from tests.kinematics_helpers import solve_vt_for_toa


@pytest.fixture(scope="module")
def table():
    return ConflictTable(IntersectionGeometry())


def make_scheduler(table):
    return ConflictScheduler(table)


def vt_planner(distance, v_init, start, v_max=3.0):
    def planner(toa):
        return solve_vt_for_toa(distance, v_init, start, toa, 3.0, 4.0, v_max)

    return planner


def crossroads_planner(distance, v_init, start, v_max=3.0):
    def planner(toa):
        return plan_arrival(
            distance, v_init, start, toa, 3.0, 4.0, v_max, v_min=0.25, launch_below=1.2
        )

    return planner


def assign_simple(sched, vid, movement, distance=3.0, v_init=3.0, start=0.0,
                  buffer=0.078, planner_factory=crossroads_planner):
    etoa_plan = vt_plan(distance, v_init, 3.0, start, 3.0, 4.0)
    return sched.assign(
        vehicle_id=vid,
        movement=movement,
        planner=planner_factory(distance, v_init, start),
        etoa=etoa_plan.arrival_time,
        body_length=0.568,
        buffer=buffer,
    )


class TestBasicAssignment:
    def test_first_vehicle_gets_etoa(self, table):
        sched = make_scheduler(table)
        m = Movement(Approach.SOUTH, Turn.STRAIGHT)
        a = assign_simple(sched, 0, m)
        assert a is not None
        assert a.toa == pytest.approx(1.0, abs=1e-3)  # 3 m at 3 m/s

    def test_non_conflicting_vehicles_share_the_box(self, table):
        sched = make_scheduler(table)
        a = assign_simple(sched, 0, Movement(Approach.SOUTH, Turn.STRAIGHT))
        b = assign_simple(sched, 1, Movement(Approach.NORTH, Turn.STRAIGHT))
        assert b.toa == pytest.approx(a.toa, abs=1e-3)

    def test_conflicting_vehicles_serialised(self, table):
        sched = make_scheduler(table)
        a = assign_simple(sched, 0, Movement(Approach.SOUTH, Turn.STRAIGHT))
        b = assign_simple(sched, 1, Movement(Approach.EAST, Turn.STRAIGHT))
        assert b.toa > a.toa + 0.2

    def test_same_lane_full_exclusion(self, table):
        sched = make_scheduler(table)
        a = assign_simple(sched, 0, Movement(Approach.SOUTH, Turn.STRAIGHT))
        b = assign_simple(sched, 1, Movement(Approach.SOUTH, Turn.LEFT))
        # The follower enters only after the leader's buffered tail
        # clears the leader's whole path.
        entry_a = sched.book[0]
        _, clear = entry_a.interval_occupancy(
            0.0, table.geometry.crossing_distance(entry_a.movement)
        )
        entry_b = sched.book[1]
        t_in, _ = entry_b.interval_occupancy(0.0, 0.1)
        assert t_in >= clear - 1e-6

    def test_bigger_buffer_bigger_separation(self, table):
        small = make_scheduler(table)
        assign_simple(small, 0, Movement(Approach.SOUTH, Turn.STRAIGHT), buffer=0.078)
        b_small = assign_simple(
            small, 1, Movement(Approach.EAST, Turn.STRAIGHT), buffer=0.078
        )
        big = make_scheduler(table)
        assign_simple(big, 0, Movement(Approach.SOUTH, Turn.STRAIGHT), buffer=0.528)
        b_big = assign_simple(
            big, 1, Movement(Approach.EAST, Turn.STRAIGHT), buffer=0.528
        )
        assert b_big.toa > b_small.toa

    def test_retransmission_replaces_reservation(self, table):
        sched = make_scheduler(table)
        m = Movement(Approach.SOUTH, Turn.STRAIGHT)
        assign_simple(sched, 0, m)
        assign_simple(sched, 0, m, start=0.5)
        assert len(sched) == 1

    def test_release(self, table):
        sched = make_scheduler(table)
        assign_simple(sched, 0, Movement(Approach.SOUTH, Turn.STRAIGHT))
        assert sched.release(0)
        assert not sched.release(0)
        assert len(sched) == 0

    def test_prune_drops_cleared(self, table):
        sched = make_scheduler(table)
        assign_simple(sched, 0, Movement(Approach.SOUTH, Turn.STRAIGHT))
        clear = sched.book[0].clear_time
        assert sched.prune(clear + 10.0) == 1
        assert len(sched) == 0

    def test_assignments_never_violate(self, table):
        """Committed schedules are pairwise conflict-free by occupancy."""
        sched = make_scheduler(table)
        movements = [
            Movement(Approach.SOUTH, Turn.STRAIGHT),
            Movement(Approach.EAST, Turn.STRAIGHT),
            Movement(Approach.NORTH, Turn.LEFT),
            Movement(Approach.WEST, Turn.RIGHT),
            Movement(Approach.SOUTH, Turn.LEFT),
            Movement(Approach.EAST, Turn.RIGHT),
        ]
        for i, m in enumerate(movements):
            assert assign_simple(sched, i, m, start=0.1 * i) is not None
        book = sched.book
        for i, a in enumerate(book):
            for b in book[i + 1:]:
                for iv in table.intervals(a.movement, b.movement):
                    a_in, a_out = a.interval_occupancy(iv.a_in, iv.a_out)
                    b_in, b_out = b.interval_occupancy(iv.b_in, iv.b_out)
                    disjoint = a_out <= b_in + 1e-6 or b_out <= a_in + 1e-6
                    assert disjoint, (a.vehicle_id, b.vehicle_id)


class TestWaitlist:
    def test_senior_waiter_blocks_junior(self, table):
        sched = make_scheduler(table)
        senior = Movement(Approach.SOUTH, Turn.STRAIGHT)
        junior = Movement(Approach.EAST, Turn.STRAIGHT)
        sched.note_request(0, senior, now=0.0)
        sched.note_request(1, junior, now=1.0)
        assert sched._blocked_by_senior_waiter(1, junior)
        assert not sched._blocked_by_senior_waiter(0, senior)

    def test_non_conflicting_not_blocked(self, table):
        sched = make_scheduler(table)
        sched.note_request(0, Movement(Approach.SOUTH, Turn.STRAIGHT), now=0.0)
        other = Movement(Approach.NORTH, Turn.STRAIGHT)
        sched.note_request(1, other, now=1.0)
        assert not sched._blocked_by_senior_waiter(1, other)

    def test_commit_clears_waitlist(self, table):
        sched = make_scheduler(table)
        m = Movement(Approach.SOUTH, Turn.STRAIGHT)
        sched.note_request(0, m, now=0.0)
        assign_simple(sched, 0, m)
        junior = Movement(Approach.EAST, Turn.STRAIGHT)
        sched.note_request(1, junior, now=1.0)
        assert not sched._blocked_by_senior_waiter(1, junior)

    def test_stale_waiters_expire(self, table):
        sched = make_scheduler(table)
        m = Movement(Approach.SOUTH, Turn.STRAIGHT)
        sched.note_request(0, m, now=0.0)
        junior = Movement(Approach.EAST, Turn.STRAIGHT)
        sched.note_request(1, junior, now=0.0 + ConflictScheduler.WAITLIST_STALE + 1)
        assert not sched._blocked_by_senior_waiter(1, junior)

    def test_assign_respects_waitlist(self, table):
        sched = make_scheduler(table)
        sched.note_request(0, Movement(Approach.SOUTH, Turn.STRAIGHT), now=0.0)
        junior = Movement(Approach.EAST, Turn.STRAIGHT)
        sched.note_request(1, junior, now=0.5)
        assert assign_simple(sched, 1, junior, start=0.5) is None


class TestScheduledCrossing:
    def test_occupancy_monotone(self, table):
        sched = make_scheduler(table)
        m = Movement(Approach.SOUTH, Turn.STRAIGHT)
        assign_simple(sched, 0, m)
        entry = sched.book[0]
        t1 = entry.interval_occupancy(0.0, 0.3)
        t2 = entry.interval_occupancy(0.5, 0.9)
        assert t1[0] <= t2[0]
        assert t1[1] <= t2[1]

    def test_occupancy_contains_toa(self, table):
        sched = make_scheduler(table)
        m = Movement(Approach.SOUTH, Turn.STRAIGHT)
        a = assign_simple(sched, 0, m)
        entry = sched.book[0]
        t_in, t_out = entry.interval_occupancy(0.0, 1.2)
        assert t_in <= a.toa <= t_out

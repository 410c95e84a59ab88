"""Tests for arrival planning (the paper's Ch 6 equations)."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.scheduler import ConflictScheduler
from repro.geometry import Approach, ConflictTable, IntersectionGeometry, Movement, Turn
from repro.kinematics import (
    MotionProfile,
    earliest_arrival_time,
    plan_arrival,
    solve_cruise_velocity,
)
from repro.kinematics.arrival import VtSolver, _vt_arrival, vt_plan
from tests.kinematics_helpers import latest_arrival_time, max_velocity


class TestEarliestArrival:
    def test_already_at_line(self):
        assert earliest_arrival_time(0.0, 2.0, 3.0, 3.0) == 0.0

    def test_accelerate_then_cruise_matches_paper_formula(self):
        # Paper Ch 6: EToA = T_acc + (DE - dX) / v_max.
        v_init, v_max, a_max, de = 1.0, 3.0, 3.0, 3.0
        t_acc = (v_max - v_init) / a_max
        dx = 0.5 * a_max * t_acc ** 2 + v_init * t_acc
        expected = t_acc + (de - dx) / v_max
        assert earliest_arrival_time(de, v_init, v_max, a_max) == pytest.approx(expected)

    def test_short_distance_never_reaches_vmax(self):
        # 0.5*3*t^2 = 0.1 from rest -> t = sqrt(0.2/3)
        t = earliest_arrival_time(0.1, 0.0, 3.0, 3.0)
        assert t == pytest.approx(math.sqrt(0.2 / 3.0))

    def test_at_vmax_already(self):
        assert earliest_arrival_time(3.0, 3.0, 3.0, 3.0) == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            earliest_arrival_time(-1.0, 1.0, 3.0, 3.0)
        with pytest.raises(ValueError):
            earliest_arrival_time(1.0, 5.0, 3.0, 3.0)  # v_init > v_max

    @given(
        st.floats(0.1, 10.0),
        st.floats(0.0, 3.0),
        st.floats(0.5, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_faster_start_never_slower(self, distance, v_init, a_max):
        v_max = 3.0
        v_init = min(v_init, v_max)
        slow = earliest_arrival_time(distance, v_init * 0.5, v_max, a_max)
        fast = earliest_arrival_time(distance, v_init, v_max, a_max)
        assert fast <= slow + 1e-9


class TestLatestArrival:
    def test_zero_crawl_is_infinite(self):
        assert latest_arrival_time(3.0, 2.0, 0.0, 4.0) == math.inf

    def test_crawl_bound(self):
        # Decelerate 3 -> 0.5 at 4 m/s^2, crawl the rest.
        t = latest_arrival_time(3.0, 3.0, 0.5, 4.0)
        t_dec = 2.5 / 4.0
        dx = 3.0 * t_dec - 0.5 * 4.0 * t_dec ** 2
        expected = t_dec + (3.0 - dx) / 0.5
        assert t == pytest.approx(expected)

    def test_later_than_earliest(self):
        e = earliest_arrival_time(3.0, 2.0, 3.0, 3.0)
        l = latest_arrival_time(3.0, 2.0, 0.5, 4.0)
        assert l > e


class TestSolveCruise:
    def test_exact_cruise_round_trip(self):
        v = solve_cruise_velocity(3.0, 1.0, 2.0, 3.0, 4.0, 3.0)
        assert v is not None
        # Verify: two-phase plan at v takes 2.0 s.
        rate = 3.0 if v >= 1.0 else 4.0
        t_chg = abs(v - 1.0) / rate
        dx = 0.5 * (v + 1.0) * t_chg
        t_total = t_chg + (3.0 - dx) / v
        assert t_total == pytest.approx(2.0, abs=1e-4)

    def test_too_fast_request_returns_none(self):
        assert solve_cruise_velocity(3.0, 1.0, 0.5, 3.0, 4.0, 3.0) is None

    def test_too_slow_request_returns_none(self):
        assert solve_cruise_velocity(3.0, 1.0, 1000.0, 3.0, 4.0, 3.0, v_min=0.5) is None

    @given(st.floats(1.0, 6.0), st.floats(0.5, 3.0), st.floats(1.2, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_solution_within_bounds(self, distance, v_init, t_total):
        v = solve_cruise_velocity(distance, v_init, t_total, 3.0, 4.0, 3.0, v_min=0.05)
        if v is not None:
            assert 0.05 - 1e-6 <= v <= 3.0 + 1e-6


class TestPlanArrival:
    def test_unreachable_toa_returns_none(self):
        assert plan_arrival(3.0, 1.0, 0.0, 0.1, 3.0, 4.0, 3.0) is None

    def test_cruise_plan_hits_toa(self):
        plan = plan_arrival(3.0, 1.0, 10.0, 12.0, 3.0, 4.0, 3.0)
        assert plan is not None
        assert not plan.stop_and_go
        assert plan.arrival_time == pytest.approx(12.0, abs=1e-3)
        assert plan.profile.position_at(plan.arrival_time) == pytest.approx(3.0, abs=1e-3)

    def test_vt_semantics_never_stop_and_go(self):
        # launch_below=0 (plain VT-IM): even very late slots must be
        # cruised to, never launched.
        plan = plan_arrival(3.0, 2.0, 0.0, 20.0, 3.0, 4.0, 3.0, launch_below=0.0)
        assert plan is not None
        assert not plan.stop_and_go

    def test_crossroads_prefers_launch_for_late_slots(self):
        plan = plan_arrival(3.0, 2.0, 0.0, 20.0, 3.0, 4.0, 3.0, launch_below=1.2)
        assert plan is not None
        assert plan.stop_and_go
        assert plan.arrival_time == pytest.approx(20.0, abs=1e-3)
        assert plan.arrival_velocity >= 1.2

    def test_launch_arrival_velocity_is_fast(self):
        plan = plan_arrival(3.0, 3.0, 0.0, 30.0, 3.0, 4.0, 3.0, launch_below=1.2)
        assert plan is not None
        # d_launch = 3 - 9/8 = 1.875 -> v = sqrt(2*3*1.875) = 3.354 -> capped 3.0
        assert plan.arrival_velocity == pytest.approx(3.0, abs=1e-6)

    def test_profile_starts_at_given_anchor(self):
        plan = plan_arrival(
            2.0, 1.0, 5.0, 8.0, 3.0, 4.0, 3.0, start_position=7.5
        )
        assert plan.profile.start_time == 5.0
        assert plan.profile.start_position == 7.5
        assert plan.profile.position_at(plan.arrival_time) == pytest.approx(9.5, abs=1e-3)

    @given(
        st.floats(0.5, 8.0),
        st.floats(0.0, 3.0),
        st.floats(0.0, 30.0),
        st.sampled_from([0.0, 1.2]),
    )
    @settings(max_examples=300, deadline=None)
    def test_feasible_plans_arrive_on_time_or_early(
        self, distance, v_init, slack, launch_below
    ):
        etoa = earliest_arrival_time(distance, v_init, 3.0, 3.0)
        toa = etoa + slack
        plan = plan_arrival(
            distance, v_init, 0.0, toa, 3.0, 4.0, 3.0, launch_below=launch_below
        )
        assert plan is not None
        # Arrival never later than requested (early only in the
        # documented crawl-band fallback).
        assert plan.arrival_time <= toa + 1e-3
        # The profile really covers the distance by the arrival time.
        assert plan.profile.position_at(plan.arrival_time) == pytest.approx(
            distance, abs=1e-3
        )

    @given(st.floats(0.5, 8.0), st.floats(0.0, 3.0), st.floats(0.5, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_velocity_limits_respected(self, distance, v_init, slack):
        etoa = earliest_arrival_time(distance, v_init, 3.0, 3.0)
        plan = plan_arrival(
            distance, v_init, 0.0, etoa + slack, 3.0, 4.0, 3.0, launch_below=1.2
        )
        assert plan is not None
        assert max_velocity(plan.profile) <= 3.0 + 1e-6


#: ``vt_plan`` arguments (distance, v_init, vt, start_time, a_max, d_max)
#: for each shape of the manoeuvre's profile.
NO_SPEED_CHANGE = (5.0, 2.0, 2.0 + 5e-10, 3.0, 3.0, 4.0)
MID_RAMP = (1.0, 0.0, 3.0, 7.25, 3.0, 4.0)
DECELERATION = (10.0, 3.0, 0.5, 0.0, 3.0, 4.0)
FLOOR_FROM_REST = (0.01, 0.0, 3.0, 41.5, 3.0, 4.0)
FLOOR_AT_SPEED = (0.01, 2.5, 2.5, 41.5, 3.0, 4.0)


@st.composite
def vt_manoeuvres(draw):
    """``vt_plan`` arguments; a VT within 1e-9 of a moving vehicle's
    ``v_init`` leaves out the speed-change segment."""
    v_init = draw(st.one_of(st.just(0.0), st.floats(0.05, 3.5)))
    vts = st.floats(0.05, 3.5)
    if v_init > 0:
        vts = st.one_of(vts, st.floats(-1e-9, 1e-9).map(lambda d: v_init + d))
    distance = draw(st.one_of(st.floats(0.0, 60.0), st.floats(0.0, 1.0),
                              st.just(0.01)))
    return (distance, v_init, draw(vts), draw(st.floats(0.0, 500.0)),
            draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 6.0)))


class TestVtArrivalClosedForm:
    """``_vt_arrival`` is the profile's own inversion, bit for bit."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(vt_manoeuvres())
    @example(NO_SPEED_CHANGE)
    @example(MID_RAMP)
    @example(DECELERATION)
    @example(FLOOR_FROM_REST)
    @example(FLOOR_AT_SPEED)
    def test_equals_the_profile_inversion(self, args):
        plan = vt_plan(*args)
        arrival, final_velocity = _vt_arrival(*args)
        profile = plan.profile
        assert arrival.hex() == profile.time_at_position(args[0]).hex()
        assert final_velocity.hex() == profile.final_velocity.hex()
        assert plan.arrival_time.hex() == arrival.hex()

    @pytest.mark.parametrize("args, accels", [
        (NO_SPEED_CHANGE, [0.0]),
        (MID_RAMP, [3.0]),
        (DECELERATION, [-4.0, 0.0]),
        (FLOOR_FROM_REST, [3.0]),
        (FLOOR_AT_SPEED, [0.0]),
    ])
    def test_examples_cover_each_profile_shape(self, args, accels):
        segments = vt_plan(*args).profile.segments
        assert [seg.accel for seg in segments] == accels

    def test_vt_plan_checks(self):
        assert _vt_arrival(3.0, 1.0, 0.0, 0.0, 3.0, 4.0) is None
        assert vt_plan(3.0, 1.0, 0.0, 0.0, 3.0, 4.0) is None
        with pytest.raises(ValueError):
            _vt_arrival(-1.0, 1.0, 2.0, 0.0, 3.0, 4.0)
        with pytest.raises(ValueError):
            _vt_arrival(3.0, 1.0, 2.0, 0.0, 3.0, 0.0)


@pytest.fixture
def profiles_built(monkeypatch):
    """A list that grows by one for every ``MotionProfile`` built."""
    built = []
    init = MotionProfile.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MotionProfile, "__init__", counting_init)
    return built


class TestVtSolverBuildsOnlyWhatItReturns:
    STATE = dict(distance=20.0, v_init=2.0, start_time=10.0, a_max=3.0,
                 d_max=4.0, v_max=3.0, v_min=0.25)

    def test_a_call_builds_at_most_the_plan_it_returns(self, profiles_built):
        slow_t = vt_plan(20.0, 2.0, 0.25, 10.0, 3.0, 4.0).arrival_time
        del profiles_built[:]
        solver = VtSolver(**self.STATE, v_floor=0.5)
        assert profiles_built == []
        etoa = solver.etoa
        # Too early, the v_max plan, two bisections (the second one's VT,
        # about 0.46 m/s, under the floor), the v_min plan (also under
        # it) and the v_max plan again, which is kept.
        toas = [etoa - 1.0, etoa, etoa + 2.0, 0.5 * (etoa + slow_t),
                slow_t + 5.0, etoa]
        outcomes = []
        for toa in toas:
            before = len(profiles_built)
            plan = solver(toa)
            outcomes.append((plan is not None, len(profiles_built) - before))
        assert outcomes == [(False, 0), (True, 1), (True, 1), (False, 0),
                            (False, 0), (True, 0)]

    def test_a_blocked_request_builds_none(self, profiles_built):
        scheduler = ConflictScheduler(ConflictTable(IntersectionGeometry()))
        senior = Movement(Approach.SOUTH, Turn.STRAIGHT)
        junior = Movement(Approach.EAST, Turn.STRAIGHT)
        scheduler.note_request(0, senior, now=0.0)
        scheduler.note_request(1, junior, now=1.0)
        del profiles_built[:]
        solver = VtSolver(**self.STATE)
        assert scheduler.assign(
            vehicle_id=1, movement=junior, planner=solver, etoa=solver.etoa,
            body_length=0.568, buffer=0.078,
        ) is None
        assert profiles_built == []

"""Unit and property tests for motion profiles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kinematics import (
    MotionProfile,
    ProfileBuilder,
    Segment,
    brake_distance,
)
from tests.kinematics_helpers import brake_time, max_velocity


def reference_locate(profile, t):
    """Reference segment search for :class:`MotionProfile`: a binary
    search for the first interior boundary above ``t``."""
    lo, hi = 0, len(profile.segments) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if t < profile._times[mid + 1]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def reference_evaluate(profile, t):
    """``(velocity, position)`` at ``t`` through :func:`reference_locate`
    (``t`` strictly inside the plan)."""
    i = reference_locate(profile, t)
    tau = t - profile._times[i]
    seg = profile.segments[i]
    return seg.velocity_at(tau), profile._positions[i] + seg.position_at(tau)


def boundary_probes(profile):
    """Every segment boundary, its neighbouring floats and each midpoint."""
    times = profile._times
    probes = []
    for t in times:
        probes += [math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]
    probes += [(a + b) / 2.0 for a, b in zip(times, times[1:])]
    return probes


def assert_matches_reference(profile, probes):
    """Bitwise agreement with the reference search wherever ``t`` is
    inside the plan; outside it, the extensions never search."""
    for t in probes:
        if profile.start_time < t < profile.end_time:
            v, s = reference_evaluate(profile, t)
            assert profile.velocity_at(t).hex() == v.hex(), t
            assert profile.position_at(t).hex() == s.hex(), t


class TestBraking:
    def test_brake_distance_formula(self):
        assert brake_distance(3.0, 4.0) == pytest.approx(9.0 / 8.0)

    def test_brake_distance_zero_speed(self):
        assert brake_distance(0.0, 4.0) == 0.0

    def test_brake_time_formula(self):
        assert brake_time(3.0, 4.0) == pytest.approx(0.75)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            brake_distance(-1.0, 4.0)
        with pytest.raises(ValueError):
            brake_distance(1.0, 0.0)
        with pytest.raises(ValueError):
            brake_time(1.0, -2.0)


class TestSegment:
    def test_length_constant_velocity(self):
        seg = Segment(duration=2.0, v0=3.0, accel=0.0)
        assert seg.length == pytest.approx(6.0)
        assert seg.v1 == 3.0

    def test_length_accelerating(self):
        seg = Segment(duration=1.0, v0=0.0, accel=2.0)
        assert seg.length == pytest.approx(1.0)
        assert seg.v1 == pytest.approx(2.0)

    def test_negative_final_velocity_rejected(self):
        with pytest.raises(ValueError):
            Segment(duration=2.0, v0=1.0, accel=-1.0)

    def test_time_at_distance_constant(self):
        seg = Segment(duration=4.0, v0=2.0, accel=0.0)
        assert seg.time_at_distance(4.0) == pytest.approx(2.0)

    def test_time_at_distance_accelerating(self):
        seg = Segment(duration=2.0, v0=0.0, accel=2.0)
        # 0.5*2*t^2 = 1 -> t = 1
        assert seg.time_at_distance(1.0) == pytest.approx(1.0)

    def test_time_at_distance_beyond_segment(self):
        seg = Segment(duration=1.0, v0=1.0, accel=0.0)
        assert seg.time_at_distance(5.0) is None

    def test_time_at_zero_distance(self):
        seg = Segment(duration=1.0, v0=1.0, accel=0.0)
        assert seg.time_at_distance(0.0) == 0.0

    def test_stationary_segment_never_covers_distance(self):
        seg = Segment(duration=5.0, v0=0.0, accel=0.0)
        assert seg.time_at_distance(0.1) is None


class TestMotionProfile:
    def build_trapezoid(self):
        """0 -> 2 m/s at 1 m/s^2, hold 3 s, starting at t=10, s=100."""
        return (
            ProfileBuilder(t0=10.0, s0=100.0, v0=0.0)
            .accelerate_to(2.0, accel=1.0)
            .hold_for(3.0)
            .build()
        )

    def test_end_time_and_position(self):
        p = self.build_trapezoid()
        assert p.end_time == pytest.approx(15.0)
        assert p.end_position == pytest.approx(100.0 + 2.0 + 6.0)

    def test_velocity_at_boundaries(self):
        p = self.build_trapezoid()
        assert p.velocity_at(10.0) == pytest.approx(0.0)
        assert p.velocity_at(11.0) == pytest.approx(1.0)
        assert p.velocity_at(12.0) == pytest.approx(2.0)
        assert p.velocity_at(14.9) == pytest.approx(2.0)

    def test_extension_before_start(self):
        p = self.build_trapezoid()
        assert p.velocity_at(0.0) == pytest.approx(0.0)
        assert p.position_at(5.0) == pytest.approx(100.0)

    def test_extension_after_end(self):
        p = self.build_trapezoid()
        assert p.velocity_at(20.0) == pytest.approx(2.0)
        assert p.position_at(16.0) == pytest.approx(p.end_position + 2.0)

    def test_time_at_position_inverts_position_at(self):
        p = self.build_trapezoid()
        for t in (10.5, 11.7, 13.0, 14.99):
            s = p.position_at(t)
            assert p.time_at_position(s) == pytest.approx(t, abs=1e-6)

    def test_time_at_position_beyond_extends(self):
        p = self.build_trapezoid()
        t = p.time_at_position(p.end_position + 4.0)
        assert t == pytest.approx(p.end_time + 2.0)

    def test_time_at_position_unreachable(self):
        p = ProfileBuilder(0.0, 0.0, 1.0).accelerate_to(0.0, 1.0).build()
        assert p.time_at_position(10.0) is None

    def test_shifted(self):
        p = self.build_trapezoid().shifted(dt=5.0, ds=-100.0)
        assert p.start_time == 15.0
        assert p.start_position == 0.0
        assert p.length == pytest.approx(8.0)

    def test_concat_contiguous(self):
        a = ProfileBuilder(0.0, 0.0, 1.0).hold_for(2.0).build()
        b = ProfileBuilder(a.end_time, a.end_position, 1.0).hold_for(3.0).build()
        c = a.concat(b)
        assert c.duration == pytest.approx(5.0)
        assert c.length == pytest.approx(5.0)

    def test_concat_discontinuous_raises(self):
        a = ProfileBuilder(0.0, 0.0, 1.0).hold_for(2.0).build()
        b = ProfileBuilder(99.0, 0.0, 1.0).hold_for(1.0).build()
        with pytest.raises(ValueError):
            a.concat(b)

    def test_sample_covers_plan(self):
        p = self.build_trapezoid()
        samples = p.sample(0.5)
        assert samples[0][0] == pytest.approx(10.0)
        assert samples[-1][0] >= p.end_time - 0.5
        for t, s, v in samples:
            assert s == pytest.approx(p.position_at(t))
            assert v == pytest.approx(p.velocity_at(t))

    def test_max_velocity(self):
        p = self.build_trapezoid()
        assert max_velocity(p) == pytest.approx(2.0)

    def test_segment_search_matches_reference_at_boundaries(self):
        """Exact boundary times and zero-duration segments: a boundary
        belongs to the segment starting there, past any zero-duration
        segments at that instant.  (The segments starting at one
        boundary start at different speeds, so a wrong pick shows in
        the velocity.)"""
        p = MotionProfile(10.0, 100.0, [
            Segment(1.0, 0.0, 2.0),
            Segment(0.0, 2.0, 0.0),
            Segment(0.0, 2.5, -1.0),
            Segment(0.5, 2.2, -1.0),
            Segment(0.0, 1.9, 1.0),
            Segment(2.0, 2.0, -1.0),
        ])
        assert p._times[1] == p._times[2] == p._times[3] == 11.0
        assert_matches_reference(p, boundary_probes(p))
        assert p.velocity_at(11.0) == 2.2
        assert p.velocity_at(11.5) == 2.0
        assert_matches_reference(self.build_trapezoid(),
                                 boundary_probes(self.build_trapezoid()))

    def test_empty_profile(self):
        p = MotionProfile(0.0, 5.0, [])
        assert p.position_at(10.0) == 5.0
        assert p.velocity_at(10.0) == 0.0


class TestProfileBuilder:
    def test_wait_until_requires_stopped(self):
        builder = ProfileBuilder(0.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            builder.wait_until(5.0)

    def test_wait_until_inserts_idle_segment(self):
        p = (
            ProfileBuilder(0.0, 0.0, 0.0)
            .wait_until(3.0)
            .accelerate_to(1.0, accel=1.0)
            .build()
        )
        assert p.velocity_at(2.0) == 0.0
        assert p.velocity_at(4.0) == pytest.approx(1.0)

    def test_hold_distance_zero_velocity_raises(self):
        with pytest.raises(ValueError):
            ProfileBuilder(0.0, 0.0, 0.0).hold_distance(1.0)

    def test_decelerate_uses_sign_correctly(self):
        p = ProfileBuilder(0.0, 0.0, 3.0).accelerate_to(1.0, accel=2.0).build()
        assert p.duration == pytest.approx(1.0)
        assert p.final_velocity == pytest.approx(1.0)

    def test_noop_accelerate_to_same_speed(self):
        p = ProfileBuilder(0.0, 0.0, 2.0).accelerate_to(2.0, accel=1.0).hold_for(1.0).build()
        assert len(p.segments) == 1


@st.composite
def profiles(draw):
    """Random multi-segment profiles via the builder."""
    v0 = draw(st.floats(0.0, 3.0))
    builder = ProfileBuilder(
        draw(st.floats(0.0, 100.0)), draw(st.floats(-50.0, 50.0)), v0
    )
    for _ in range(draw(st.integers(1, 5))):
        action = draw(st.sampled_from(["accel", "hold"]))
        if action == "accel":
            builder.accelerate_to(
                draw(st.floats(0.0, 3.0)), accel=draw(st.floats(0.5, 5.0))
            )
        else:
            builder.hold_for(draw(st.floats(0.0, 5.0)))
    return builder.build()


class TestProfileProperties:
    @given(profiles(), st.lists(st.floats(0.0, 1.0), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_segment_search_matches_reference(self, profile, fracs):
        probes = [profile.start_time + f * profile.duration for f in fracs]
        assert_matches_reference(profile, boundary_probes(profile) + probes)

    @given(profiles())
    @settings(max_examples=100, deadline=None)
    def test_position_is_monotone(self, profile):
        ts = [profile.start_time + k * profile.duration / 20 for k in range(21)]
        positions = [profile.position_at(t) for t in ts]
        for earlier, later in zip(positions, positions[1:]):
            assert later >= earlier - 1e-9

    @given(profiles())
    @settings(max_examples=100, deadline=None)
    def test_velocity_never_negative(self, profile):
        for k in range(21):
            t = profile.start_time + k * profile.duration / 20
            assert profile.velocity_at(t) >= -1e-9

    @given(profiles())
    @settings(max_examples=100, deadline=None)
    def test_length_consistency(self, profile):
        assert profile.position_at(profile.end_time) == pytest.approx(
            profile.end_position, abs=1e-6
        )

    @given(profiles(), st.floats(0.1, 0.9))
    @settings(max_examples=100, deadline=None)
    def test_time_at_position_round_trip(self, profile, frac):
        if profile.length < 1e-6:
            return
        s = profile.start_position + frac * profile.length
        t = profile.time_at_position(s)
        assert t is not None
        assert profile.position_at(t) == pytest.approx(s, abs=1e-5)

    @given(profiles())
    @settings(max_examples=50, deadline=None)
    def test_position_integrates_velocity(self, profile):
        """Trapezoidal numeric integration of v matches position."""
        if profile.duration < 1e-6:
            return
        n = 400
        h = profile.duration / n
        integral = 0.0
        for k in range(n):
            t0 = profile.start_time + k * h
            integral += 0.5 * (profile.velocity_at(t0) + profile.velocity_at(t0 + h)) * h
        assert integral == pytest.approx(profile.length, abs=1e-3 + 1e-3 * abs(profile.length))

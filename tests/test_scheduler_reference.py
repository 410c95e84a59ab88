"""Bit-for-bit references for the profile inversion and the scheduler's
memoised occupancy.

``MotionProfile.time_at_position`` reads segment lengths computed once
per profile, ``Segment.time_at_distance`` picks the smaller in-range
root without sorting, a booked :class:`ScheduledCrossing` computes each
``interval_occupancy`` window once, and ``ConflictScheduler._violation``
inverts the candidate's profile once per distinct ``a_in``.  The
functions below are the straightforward versions those bodies replaced.
They live here, not in ``src/``, as the reference the production code
must equal bit for bit (``float.hex``, ``None`` and signed zeros
included) on hypothesis-drawn profiles and booking sequences.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.scheduler import ConflictScheduler
from repro.geometry import ConflictInterval, ConflictTable, IntersectionGeometry
from repro.kinematics.arrival import plan_arrival, vt_plan
from repro.kinematics.profiles import _EPS, MotionProfile, Segment
from tests.kinematics_helpers import solve_vt_for_toa

TABLE = ConflictTable(IntersectionGeometry())
MOVEMENTS = TABLE.geometry.movements


# -- the references ---------------------------------------------------------

def ref_time_at_distance(seg, dist):
    """``Segment.time_at_distance`` with a sorted candidate list."""
    if dist <= _EPS:
        return 0.0
    if dist > seg.length + _EPS:
        return None
    if abs(seg.accel) < _EPS:
        if seg.v0 < _EPS:
            return None
        return dist / seg.v0
    disc = seg.v0 ** 2 + 2.0 * seg.accel * dist
    if disc < 0:
        return None
    root = math.sqrt(max(disc, 0.0))
    candidates = sorted(
        tau
        for tau in ((-seg.v0 + root) / seg.accel, (-seg.v0 - root) / seg.accel)
        if -_EPS <= tau <= seg.duration + _EPS
    )
    return max(candidates[0], 0.0) if candidates else None


def ref_time_at_position(profile, s):
    """``MotionProfile.time_at_position`` re-deriving every length."""
    times = [profile.start_time]
    positions = [profile.start_position]
    for seg in profile.segments:
        times.append(times[-1] + seg.duration)
        positions.append(positions[-1] + seg.length)
    if s <= profile.start_position + _EPS:
        return profile.start_time if s >= profile.start_position - _EPS else None
    for i, seg in enumerate(profile.segments):
        local = s - positions[i]
        if local <= seg.length + _EPS:
            tau = ref_time_at_distance(seg, local)
            if tau is not None:
                return times[i] + tau
    v = profile.final_velocity
    if v > _EPS:
        return times[-1] + (s - positions[-1]) / v
    return None


def ref_interval_occupancy(entry, s_in, s_out):
    """Unmemoised ``ScheduledCrossing.interval_occupancy``."""
    t_in = ref_time_at_position(entry.profile, entry.line + s_in - entry.buffer)
    t_out = ref_time_at_position(
        entry.profile, entry.line + s_out + entry.body_length + entry.buffer
    )
    if t_in is None:
        t_in = entry.profile.start_time
    if t_out is None:
        t_out = math.inf
    return (t_in, t_out)


def ref_violation(scheduler, movement, plan, body_length, buffer, exclude_id):
    """Unmemoised ``ConflictScheduler._violation`` (no comparison count)."""
    profile = plan.profile
    line = profile.position_at(plan.arrival_time)
    push = 0.0
    for other in scheduler._book:
        if other.vehicle_id == exclude_id:
            continue
        for iv in list(scheduler.conflicts.intervals(movement, other.movement)):
            _, o_out = ref_interval_occupancy(other, iv.b_in, iv.b_out)
            t_in = ref_time_at_position(profile, line + iv.a_in - buffer)
            if t_in is None:
                t_in = profile.start_time
            if t_in < o_out:
                push = max(push, o_out - t_in)
    return push


def bits(value):
    """Exact identity of an optional float (hex keeps the sign of 0)."""
    return None if value is None else float(value).hex()


# -- profiles ----------------------------------------------------------------

speeds = st.floats(0.0, 3.0, allow_nan=False)
rates = st.floats(0.05, 4.0, allow_nan=False)
spans = st.floats(0.01, 5.0, allow_nan=False)


@st.composite
def profiles(draw):
    """Accelerating, braking (to rest and partway), cruising, waiting
    and zero-duration segments in any order."""
    v = draw(speeds)
    segments = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(
            ["accel", "brake_to_rest", "brake", "cruise", "wait", "zero"]
        ))
        if kind == "accel":
            seg = Segment(draw(spans), v, draw(rates))
        elif kind == "brake_to_rest" and v > 0:
            a = draw(rates)
            seg = Segment(v / a, v, -a)
        elif kind == "brake" and v > 0:
            a = draw(rates)
            seg = Segment(v / a * draw(st.floats(0.05, 0.95)), v, -a)
        elif kind == "cruise":
            seg = Segment(draw(spans), v, 0.0)
        elif kind == "wait":
            seg = Segment(draw(spans), 0.0, 0.0)
        else:
            seg = Segment(0.0, v, draw(st.sampled_from([0.0, 1.5, -1.5])))
        segments.append(seg)
        v = max(seg.v1, 0.0)
    return MotionProfile(
        draw(st.floats(-5.0, 50.0)), draw(st.floats(-5.0, 5.0)), segments
    )


def probe_positions(profile, extra):
    """Every segment boundary, +-_EPS and +-2*_EPS around it, one
    position before the start, one past the end, and ``extra``."""
    out = [profile.start_position - 1.0, profile.end_position + 1.0]
    for boundary in profile._positions:
        for offset in (0.0, _EPS, -_EPS, 2 * _EPS, -2 * _EPS):
            out.append(boundary + offset)
        out.append(math.nextafter(boundary, math.inf))
        out.append(math.nextafter(boundary, -math.inf))
    return out + [profile.start_position + x for x in extra]


class TestProfileInversion:
    @settings(max_examples=300, deadline=None)
    @given(profiles(), st.lists(st.floats(-1.0, 40.0), max_size=8))
    def test_time_at_position_matches_reference(self, profile, extra):
        for s in probe_positions(profile, extra):
            assert bits(profile.time_at_position(s)) == bits(
                ref_time_at_position(profile, s)
            ), (profile, s)

    @settings(max_examples=300, deadline=None)
    @given(profiles(), st.lists(st.floats(-1.0, 20.0), max_size=6))
    def test_time_at_distance_matches_reference(self, profile, extra):
        for seg in profile.segments:
            probes = [0.0, -1.0, _EPS, 2 * _EPS, seg.length, seg.length + 1.0]
            probes += [seg.length + d for d in (_EPS, -_EPS, 2 * _EPS)]
            for dist in probes + extra:
                assert bits(seg.time_at_distance(dist)) == bits(
                    ref_time_at_distance(seg, dist)
                ), (seg, dist)

    def test_double_root(self):
        # disc == 0 at the end of a brake to rest: both candidates are
        # the same float.
        seg = Segment(2.0, 1.0, -0.5)
        for dist in (seg.length, seg.length - _EPS / 2):
            assert bits(seg.time_at_distance(dist)) == bits(
                ref_time_at_distance(seg, dist)
            )


# -- booking sequences ---------------------------------------------------------

requests = st.lists(
    st.tuples(
        st.integers(0, len(MOVEMENTS) - 1),
        st.floats(0.5, 4.0),            # distance to the line
        st.floats(0.0, 3.0),            # speed at the request
        st.floats(0.0, 0.6),            # gap since the previous request
        st.sampled_from(["crossroads", "vt"]),
        st.sampled_from([0.0, 0.078, 0.15]),
    ),
    min_size=1,
    max_size=10,
)


def planner_for(kind, distance, v_init, start):
    if kind == "crossroads":
        def planner(toa):
            return plan_arrival(
                distance, v_init, start, toa, 3.0, 4.0, 3.0,
                v_min=0.25, launch_below=1.2,
            )
    else:
        def planner(toa):
            return solve_vt_for_toa(distance, v_init, start, toa, 3.0, 4.0, 3.0)
    return planner


#: Windows that share an ``s_in`` or an ``s_out`` with different
#: partners, which the real table's intervals never do.
SHARED_ENDS = [(0.0, 0.3), (0.0, 0.9), (0.2, 0.3), (0.2, 1.1)]


class DrawnTable:
    """A conflict table giving every movement pair the same drawn
    intervals.  Its ends come from a small pool, so intervals share an
    ``a_in`` or ``b_in`` with different partners: the key collisions a
    memo must keep apart."""

    def __init__(self, intervals):
        self.geometry = TABLE.geometry
        self._intervals = tuple(intervals)

    def intervals(self, a, b):
        return self._intervals

    def conflicts(self, a, b):
        return bool(self._intervals)


ends = st.sampled_from([0.0, 0.2, 0.45, 0.9, 1.3])
drawn_tables = st.lists(
    st.builds(ConflictInterval, ends, ends, ends, ends), min_size=1, max_size=4
).map(DrawnTable)


def check_book(scheduler):
    """Every booked window, asked twice, equals the reference."""
    for entry in scheduler._book:
        windows = [
            (iv.b_in, iv.b_out)
            for other in MOVEMENTS
            for iv in scheduler.conflicts.intervals(other, entry.movement)
        ]
        for s_in, s_out in windows + SHARED_ENDS:
            want = tuple(map(bits, ref_interval_occupancy(entry, s_in, s_out)))
            for _ in range(2):
                got = entry.interval_occupancy(s_in, s_out)
                assert tuple(map(bits, got)) == want


class TestMemoisedScheduler:
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(requests)
    def test_bookings_match_unmemoised_scheduler(self, reqs):
        self.check_bookings(TABLE, reqs)

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(drawn_tables, requests)
    def test_bookings_match_on_colliding_intervals(self, table, reqs):
        self.check_bookings(table, reqs)

    @staticmethod
    def check_bookings(table, reqs):
        fast = ConflictScheduler(table)
        slow = ConflictScheduler(table)
        real = fast._violation

        def checked(movement, plan, body_length, buffer, exclude_id):
            got = real(movement, plan, body_length, buffer, exclude_id)
            want = ref_violation(fast, movement, plan, body_length, buffer, exclude_id)
            assert bits(got) == bits(want)
            return got

        fast._violation = checked
        slow._violation = lambda *args: ref_violation(slow, *args)
        start = 0.0
        for vid, (m, distance, v_init, gap, kind, buffer) in enumerate(reqs):
            start += gap
            movement = MOVEMENTS[m]
            etoa_plan = vt_plan(distance, v_init, 3.0, start, 3.0, 4.0)
            etoa = etoa_plan.arrival_time if etoa_plan else start
            outcomes = []
            for sched in (fast, slow):
                got = sched.assign(
                    vehicle_id=vid, movement=movement,
                    planner=planner_for(kind, distance, v_init, start),
                    etoa=etoa, body_length=0.568, buffer=buffer,
                )
                outcomes.append(None if got is None else bits(got.toa))
            assert outcomes[0] == outcomes[1]
            assert [
                (e.vehicle_id, bits(e.toa), bits(e.clear_time)) for e in fast._book
            ] == [
                (e.vehicle_id, bits(e.toa), bits(e.clear_time)) for e in slow._book
            ]
            check_book(fast)

    def test_memo_dropped_with_the_entry(self):
        sched = ConflictScheduler(TABLE)
        movement = MOVEMENTS[0]
        plan = vt_plan(3.0, 3.0, 3.0, 0.0, 3.0, 4.0)
        sched.assign(0, movement, planner_for("crossroads", 3.0, 3.0, 0.0),
                     plan.arrival_time, 0.568, 0.078)
        entry = sched.reservation_for(0)
        entry.interval_occupancy(0.0, 0.5)
        assert entry._windows
        # A retransmit books a fresh entry with an empty memo.
        sched.assign(0, movement, planner_for("crossroads", 3.0, 3.0, 0.0),
                     plan.arrival_time, 0.568, 0.078)
        assert sched.reservation_for(0) is not entry
        assert not sched.reservation_for(0)._windows
        assert sched.release(0)
        assert entry not in sched._book

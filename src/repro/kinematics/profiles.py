"""Piecewise-constant-acceleration motion profiles.

A :class:`MotionProfile` is a sequence of :class:`Segment` s, each with a
constant acceleration, anchored at an absolute start time and position.
Evaluation is closed-form, so the schedulers and the micro-simulator
agree exactly about where a vehicle is at any instant — the property
Crossroads exploits (position at the execution time ``TE`` is
deterministic).

All quantities are SI: metres, seconds, m/s, m/s^2.  Profiles never
contain negative velocities (vehicles do not reverse on an approach).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = [
    "MotionProfile",
    "ProfileBuilder",
    "Segment",
    "brake_distance",
]

_EPS = 1e-9


def brake_distance(speed: float, decel: float) -> float:
    """Distance covered while braking from ``speed`` to rest at ``decel``.

    This is the "safe stop distance" of the vehicle algorithms (Ch 4):
    a vehicle that has not heard back from the IM must initiate a stop
    no later than this distance from the line.
    """
    if speed < 0:
        raise ValueError("speed must be non-negative")
    if decel <= 0:
        raise ValueError("decel must be positive")
    return speed * speed / (2.0 * decel)


def _time_within(
    v0: float, accel: float, duration: float, dist: float
) -> Optional[float]:
    """:meth:`Segment.time_at_distance` for ``_EPS < dist <= length +
    _EPS`` (the caller has checked both bounds), from the segment's
    ``v0``, ``accel`` and ``duration``."""
    if abs(accel) < _EPS:
        if v0 < _EPS:
            return None
        return dist / v0
    # Solve 0.5*a*tau^2 + v0*tau - dist = 0 for the smallest tau >= 0.
    disc = v0 ** 2 + 2.0 * accel * dist
    if disc < 0:
        return None
    root = math.sqrt(max(disc, 0.0))
    lo = (-v0 + root) / accel
    hi = (-v0 - root) / accel
    if not lo <= hi:  # a stable two-element sort: ties keep ``lo``
        lo, hi = hi, lo
    top = duration + _EPS
    if -_EPS <= lo <= top:
        return max(lo, 0.0)
    if -_EPS <= hi <= top:
        return max(hi, 0.0)
    return None


@dataclass(frozen=True)
class Segment:
    """Constant-acceleration piece: ``duration`` at initial ``v0``.

    The final velocity is ``v0 + accel * duration`` and must stay
    non-negative throughout the segment.
    """

    duration: float
    v0: float
    accel: float

    def __post_init__(self):
        if self.duration < -_EPS:
            raise ValueError(f"negative duration {self.duration}")
        if self.v0 < -_EPS:
            raise ValueError(f"negative initial velocity {self.v0}")
        if self.v1 < -_EPS:
            raise ValueError(
                f"segment ends at negative velocity {self.v1:.6g} "
                f"(v0={self.v0}, a={self.accel}, T={self.duration})"
            )

    @property
    def v1(self) -> float:
        """Velocity at the end of the segment."""
        return self.v0 + self.accel * self.duration

    @property
    def length(self) -> float:
        """Distance covered by the segment."""
        return self.v0 * self.duration + 0.5 * self.accel * self.duration ** 2

    def velocity_at(self, tau: float) -> float:
        """Velocity ``tau`` seconds into the segment."""
        return self.v0 + self.accel * tau

    def position_at(self, tau: float) -> float:
        """Distance covered ``tau`` seconds into the segment."""
        return self.v0 * tau + 0.5 * self.accel * tau ** 2

    def time_at_distance(self, dist: float) -> Optional[float]:
        """First ``tau`` at which the segment has covered ``dist``.

        Returns ``None`` if the segment never covers ``dist``.
        """
        if dist <= _EPS:
            return 0.0
        if dist > self.length + _EPS:
            return None
        return _time_within(self.v0, self.accel, self.duration, dist)


class MotionProfile:
    """A trajectory: absolute anchor plus a list of segments.

    Beyond the final segment the profile *extends at the final velocity*
    (a vehicle that finished its plan keeps cruising); before the anchor
    it extends backwards at the initial velocity.  This makes profile
    evaluation total in time, which simplifies conflict checking.
    """

    def __init__(self, start_time: float, start_position: float, segments: Sequence[Segment]):
        self.start_time = float(start_time)
        self.start_position = float(start_position)
        self.segments: List[Segment] = list(segments)
        # Precompute segment lengths and cumulative boundaries.
        t, s = self.start_time, self.start_position
        self._lengths: List[float] = []
        self._times = [t]
        self._positions = [s]
        for seg in self.segments:
            seg_length = seg.length
            t += seg.duration
            s += seg_length
            self._lengths.append(seg_length)
            self._times.append(t)
            self._positions.append(s)

    # -- bounds -----------------------------------------------------------
    @property
    def end_time(self) -> float:
        """Absolute time at which the last segment ends."""
        return self._times[-1]

    @property
    def end_position(self) -> float:
        """Position at :attr:`end_time`."""
        return self._positions[-1]

    @property
    def duration(self) -> float:
        """Total planned duration."""
        return self.end_time - self.start_time

    @property
    def length(self) -> float:
        """Total planned distance."""
        return self.end_position - self.start_position

    @property
    def initial_velocity(self) -> float:
        return self.segments[0].v0 if self.segments else 0.0

    @property
    def final_velocity(self) -> float:
        return self.segments[-1].v1 if self.segments else 0.0

    # -- evaluation ---------------------------------------------------------
    # Both evaluators run every control tick.  Inside the plan, segment
    # ``i`` holds ``t`` when ``i + 1`` is the first interior boundary
    # (``_times[1:n]``) above ``t``: a boundary belongs to the segment
    # starting there, past any zero-duration segments at that instant.
    def velocity_at(self, t: float) -> float:
        """Velocity at absolute time ``t`` (clamped extension outside)."""
        segments = self.segments
        if not segments:
            return 0.0
        if t <= self.start_time:
            return self.initial_velocity
        times = self._times
        if t >= times[-1]:
            return self.final_velocity
        i = bisect_right(times, t, 1, len(segments)) - 1
        return segments[i].velocity_at(t - times[i])

    def position_at(self, t: float) -> float:
        """Position at absolute time ``t`` (linear extension outside)."""
        segments = self.segments
        if not segments:
            return self.start_position
        if t <= self.start_time:
            return self.start_position + self.initial_velocity * (t - self.start_time)
        times = self._times
        if t >= times[-1]:
            return self.end_position + self.final_velocity * (t - self.end_time)
        i = bisect_right(times, t, 1, len(segments)) - 1
        return self._positions[i] + segments[i].position_at(t - times[i])

    def time_at_position(self, s: float) -> Optional[float]:
        """First absolute time at which the profile reaches position ``s``.

        Returns ``None`` if ``s`` is never reached (including via the
        constant-velocity extension only when the final velocity is 0).
        """
        if s <= self.start_position + _EPS:
            return self.start_time if s >= self.start_position - _EPS else None
        positions, lengths = self._positions, self._lengths
        for i, seg in enumerate(self.segments):
            local = s - positions[i]
            if local <= lengths[i] + _EPS:
                # Segment.time_at_distance, its length bound already met.
                tau = 0.0 if local <= _EPS else _time_within(
                    seg.v0, seg.accel, seg.duration, local)
                if tau is not None:
                    return self._times[i] + tau
        # Beyond the plan: extend at final velocity.
        v = self.final_velocity
        if v > _EPS:
            return self.end_time + (s - self.end_position) / v
        return None

    # -- transforms ---------------------------------------------------------
    def shifted(self, dt: float = 0.0, ds: float = 0.0) -> "MotionProfile":
        """A copy translated by ``dt`` in time and ``ds`` in position."""
        return MotionProfile(self.start_time + dt, self.start_position + ds, self.segments)

    def concat(self, other: "MotionProfile") -> "MotionProfile":
        """Append ``other``'s segments (must chain continuously)."""
        if abs(other.start_time - self.end_time) > 1e-6:
            raise ValueError("profiles are not time-contiguous")
        if abs(other.start_position - self.end_position) > 1e-6:
            raise ValueError("profiles are not position-contiguous")
        return MotionProfile(
            self.start_time, self.start_position, self.segments + other.segments
        )

    def sample(self, dt: float) -> "list[tuple[float, float, float]]":
        """``(t, position, velocity)`` triples every ``dt`` over the plan."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        out = []
        t = self.start_time
        while t < self.end_time + _EPS:
            out.append((t, self.position_at(t), self.velocity_at(t)))
            t += dt
        return out

    def __repr__(self) -> str:
        return (
            f"MotionProfile(t0={self.start_time:.3f}, s0={self.start_position:.3f}, "
            f"{len(self.segments)} segments, T={self.duration:.3f}s, "
            f"L={self.length:.3f}m)"
        )


class ProfileBuilder:
    """Incremental construction of a :class:`MotionProfile`.

    Tracks the running velocity so each primitive only needs its own
    parameters::

        profile = (ProfileBuilder(t0=0.0, s0=0.0, v0=1.0)
                   .accelerate_to(3.0, accel=2.0)
                   .hold_for(2.0)
                   .build())
    """

    def __init__(self, t0: float, s0: float, v0: float):
        if v0 < 0:
            raise ValueError("initial velocity must be non-negative")
        self._t0 = t0
        self._s0 = s0
        self._v = v0
        self._segments: List[Segment] = []

    @property
    def velocity(self) -> float:
        """Current running velocity."""
        return self._v

    @property
    def length(self) -> float:
        """Distance covered so far: ``build().length`` bit for bit,
        summed the same way without building the profile."""
        s0 = float(self._s0)
        s = s0
        for seg in self._segments:
            s += seg.length
        return s - s0

    def accelerate_to(self, v_target: float, accel: float) -> "ProfileBuilder":
        """Change speed to ``v_target`` at magnitude ``accel``."""
        if accel <= 0:
            raise ValueError("accel magnitude must be positive")
        if v_target < 0:
            raise ValueError("target velocity must be non-negative")
        dv = v_target - self._v
        if abs(dv) > _EPS:
            a = math.copysign(accel, dv)
            self._segments.append(Segment(abs(dv) / accel, self._v, a))
            self._v = v_target
        return self

    def hold_for(self, duration: float) -> "ProfileBuilder":
        """Cruise at the current velocity for ``duration`` seconds."""
        if duration < -_EPS:
            raise ValueError("duration must be non-negative")
        if duration > _EPS:
            self._segments.append(Segment(duration, self._v, 0.0))
        return self

    def hold_distance(self, distance: float) -> "ProfileBuilder":
        """Cruise at the current velocity for ``distance`` metres."""
        if distance < -_EPS:
            raise ValueError("distance must be non-negative")
        if distance > _EPS:
            if self._v < _EPS:
                raise ValueError("cannot cover distance at zero velocity")
            self._segments.append(Segment(distance / self._v, self._v, 0.0))
        return self

    def wait_until(self, t_abs: float) -> "ProfileBuilder":
        """Stand still (requires v == 0) until absolute time ``t_abs``."""
        if self._v > _EPS:
            raise ValueError("wait_until requires the vehicle to be stopped")
        current_end = self._t0 + sum(s.duration for s in self._segments)
        if t_abs > current_end + _EPS:
            self._segments.append(Segment(t_abs - current_end, 0.0, 0.0))
        return self

    def build(self) -> MotionProfile:
        """Finalize into a :class:`MotionProfile`."""
        return MotionProfile(self._t0, self._s0, self._segments)

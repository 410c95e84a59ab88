"""Arrival-time planning: the paper's Ch 6 kinematic equations.

Given a vehicle ``DE`` metres from the stop line travelling at
``v_init``, the IM must pick a time of arrival ``ToA`` and a target
velocity ``VT`` that the vehicle can actually realise:

* :func:`earliest_arrival_time` — the ``EToA`` bound of Ch 6: accelerate
  at ``a_max`` to ``v_max``, then cruise.  ``EToA = T_acc + (DE - dX) /
  v_max`` with ``T_acc = (v_max - v_init) / a_max`` and
  ``dX = 0.5 a_max T_acc^2 + v_init T_acc``.
* :func:`solve_cruise_velocity` — invert the two-phase (speed-change
  then cruise) profile: find the cruise velocity that makes the vehicle
  arrive exactly at a requested ``ToA``.
* :func:`plan_arrival` — full planner used by Crossroads.  Produces
  either a two-phase cruise plan, or (when the protocol can express a
  timed launch) a stop-and-go plan — brake to rest immediately, wait,
  launch at full acceleration — when the assigned slot is later than
  any acceptable cruise speed allows.
* :func:`distance_at_te` — Crossroads' deterministic state at ``TE``:
  the Crossroads IM plans from it and the vehicle starts its plan there.
* :func:`vt_plan` / :class:`VtSolver` — the plain VT-IM manoeuvre
  "accelerate to VT and maintain": the speed change may finish *inside*
  the box (a stopped vehicle at the line launches straight through).
  One closed form gives its arrival time and final velocity, the same
  floats the profile's own inversion gives; :func:`vt_plan` reads its
  arrival time from it, and the solver bisects on it to invert arrival
  time over VT for every ToA one request asks about, building a profile
  only for the plan it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.kinematics.profiles import MotionProfile, ProfileBuilder, _time_within

__all__ = [
    "ArrivalPlan",
    "VtSolver",
    "distance_at_te",
    "earliest_arrival_time",
    "plan_arrival",
    "solve_cruise_velocity",
    "vt_plan",
]

_EPS = 1e-9


def _check_inputs(distance: float, v_init: float, v_max: float, a_max: float) -> None:
    if distance < 0:
        raise ValueError("distance must be non-negative")
    if v_init < 0:
        raise ValueError("v_init must be non-negative")
    if v_max <= 0:
        raise ValueError("v_max must be positive")
    if a_max <= 0:
        raise ValueError("a_max must be positive")
    if v_init > v_max + 1e-6:
        raise ValueError(f"v_init={v_init} exceeds v_max={v_max}")


def distance_at_te(*, dt: float, vc: float, tt: float, te: float) -> float:
    """Distance to the line at ``te`` of a vehicle that holds ``vc``
    from ``tt``, when it was ``dt`` out (Crossroads' state at TE, Ch 6):
    ``DE = DT - VC * (TE - TT)``, floored at 0.01 m for a vehicle that
    would reach the line before TE."""
    return max(dt - vc * (te - tt), 0.01)


def earliest_arrival_time(
    distance: float, v_init: float, v_max: float, a_max: float
) -> float:
    """Minimum time to cover ``distance`` (paper's ``EToA``, relative).

    The vehicle accelerates at ``a_max`` until ``v_max`` and then holds.
    If ``distance`` is shorter than the acceleration run the answer is
    the root of the quadratic ``0.5 a t^2 + v_init t = distance``.
    """
    _check_inputs(distance, v_init, v_max, a_max)
    if distance < _EPS:
        return 0.0
    t_acc = (v_max - min(v_init, v_max)) / a_max
    dx = 0.5 * a_max * t_acc ** 2 + v_init * t_acc
    if dx >= distance:
        # Never reaches v_max: accelerate the whole way.
        disc = v_init ** 2 + 2.0 * a_max * distance
        return (-v_init + math.sqrt(disc)) / a_max
    return t_acc + (distance - dx) / v_max


def _two_phase_time(
    v: float, distance: float, v_init: float, a_max: float, d_max: float
) -> Optional[float]:
    """Arrival time of speed-change-to-``v``-then-cruise, or None."""
    if v < _EPS:
        return None
    rate = a_max if v >= v_init else d_max
    t_chg = abs(v - v_init) / rate
    dx = 0.5 * (v + v_init) * t_chg
    if dx > distance + 1e-7:
        return None  # the speed change itself overshoots the line
    return t_chg + (distance - dx) / v


def solve_cruise_velocity(
    distance: float,
    v_init: float,
    t_total: float,
    a_max: float,
    d_max: float,
    v_max: float,
    v_min: float = 0.05,
    tol: float = 1e-7,
) -> Optional[float]:
    """Cruise velocity ``v`` such that the two-phase plan takes ``t_total``.

    The two-phase plan changes speed from ``v_init`` to ``v`` at the
    maximum rate and then cruises at ``v`` to the line.  Arrival time is
    strictly decreasing in ``v``, so bisection converges.  Returns
    ``None`` when no ``v`` in ``[v_min, v_max]`` fits (the caller then
    falls back to a stop-and-go plan or clamps to ``EToA``).
    """
    _check_inputs(distance, v_init, v_max, a_max)
    if d_max <= 0:
        raise ValueError("d_max must be positive")
    if not 0 < v_min <= v_max:
        raise ValueError("need 0 < v_min <= v_max")
    if t_total <= 0:
        return None

    # Highest cruise speed whose speed-change leg fits in the distance:
    # accelerating all the way reaches sqrt(v0^2 + 2 a d).
    v_reach = math.sqrt(v_init ** 2 + 2.0 * a_max * distance)
    v_hi = min(v_max, v_reach)
    t_fast = _two_phase_time(v_hi, distance, v_init, a_max, d_max)
    if t_fast is None or t_total < t_fast - 1e-9:
        return None  # even flat-out is too slow
    t_slow = _two_phase_time(v_min, distance, v_init, a_max, d_max)
    if t_slow is not None and t_total > t_slow + 1e-9:
        return None  # would need to go slower than the crawl floor
    if t_slow is None:
        # Braking to v_min overshoots the line; the feasible band is
        # narrower.  Find the slowest feasible v by bisection on
        # feasibility, then proceed.
        lo_v, hi_v = v_min, v_hi
        for _ in range(200):
            mid = 0.5 * (lo_v + hi_v)
            if _two_phase_time(mid, distance, v_init, a_max, d_max) is None:
                lo_v = mid
            else:
                hi_v = mid
        v_floor = hi_v
        t_slow = _two_phase_time(v_floor, distance, v_init, a_max, d_max)
        if t_slow is None or t_total > t_slow + 1e-9:
            return None
        lo, hi = v_floor, v_hi
    else:
        lo, hi = v_min, v_hi

    # Bisection: T(lo) >= t_total >= T(hi).
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        t_mid = _two_phase_time(mid, distance, v_init, a_max, d_max)
        if t_mid is None:
            lo = mid
            continue
        if t_mid > t_total:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ArrivalPlan:
    """A committed approach trajectory.

    Attributes
    ----------
    profile:
        Absolute-time :class:`MotionProfile` from the plan's start
        position to the stop line (position increases towards the line).
    arrival_time:
        Absolute time at which the vehicle reaches the stop line.
    arrival_velocity:
        Velocity when crossing the stop line (the paper's ``VT``).
    stop_and_go:
        True when the plan includes a full stop and relaunch.
    """

    profile: MotionProfile
    arrival_time: float
    arrival_velocity: float
    stop_and_go: bool = False


def _cruise_plan(
    v_cruise: float,
    distance: float,
    v_init: float,
    start_time: float,
    start_position: float,
    a_max: float,
    d_max: float,
) -> ArrivalPlan:
    """Two-phase plan: change speed to ``v_cruise``, hold to the line."""
    builder = ProfileBuilder(start_time, start_position, v_init)
    builder.accelerate_to(v_cruise, a_max if v_cruise >= v_init else d_max)
    covered = builder.length
    builder.hold_distance(max(distance - covered, 0.0))
    profile = builder.build()
    return ArrivalPlan(
        profile=profile,
        arrival_time=profile.end_time,
        arrival_velocity=v_cruise,
        stop_and_go=False,
    )


def _stop_and_go_plan(
    distance: float,
    v_init: float,
    start_time: float,
    toa: float,
    a_max: float,
    d_max: float,
    v_max: float,
) -> Optional[ArrivalPlan]:
    """Brake to rest now, wait, launch to cross the line at ``toa``.

    Returns ``None`` when the vehicle cannot stop before the line or
    when ``toa`` comes sooner than the stop+launch takes.
    """
    horizon = toa - start_time
    t_stop = v_init / d_max
    d_stop = 0.5 * v_init ** 2 / d_max
    d_launch = distance - d_stop
    if d_launch < -1e-7:
        return None
    d_launch = max(d_launch, 0.0)
    t_launch = earliest_arrival_time(d_launch, 0.0, v_max, a_max)
    if horizon < t_stop + t_launch - 1e-6:
        return None
    launch_speed = min(v_max, math.sqrt(2.0 * a_max * d_launch)) if d_launch else 0.0
    builder = ProfileBuilder(start_time, 0.0, v_init)
    if v_init > _EPS:
        builder.accelerate_to(0.0, d_max)
    builder.wait_until(toa - t_launch)
    if d_launch > _EPS:
        builder.accelerate_to(launch_speed, a_max)
        covered = builder.length
        builder.hold_distance(max(distance - covered, 0.0))
    profile = builder.build()
    return ArrivalPlan(
        profile=profile,
        arrival_time=profile.end_time,
        arrival_velocity=launch_speed,
        stop_and_go=True,
    )


def plan_arrival(
    distance: float,
    v_init: float,
    start_time: float,
    toa: float,
    a_max: float,
    d_max: float,
    v_max: float,
    v_min: float = 0.05,
    start_position: float = 0.0,
    launch_below: float = 0.0,
) -> Optional[ArrivalPlan]:
    """Plan a trajectory starting at ``start_time`` that reaches the
    stop line (``start_position + distance``) exactly at ``toa``.

    Plan selection:

    1. the two-phase cruise plan, if its cruise speed is at least
       ``launch_below`` (so slow crawls are avoided when the protocol
       can express a timed launch — crawling through the box is what
       collapses throughput);
    2. otherwise stop-and-go — brake to rest immediately, wait, then
       launch at ``a_max`` timed so the line is crossed at ``toa``
       with a *fast* crossing speed;
    3. otherwise whatever cruise exists, however slow;
    4. otherwise a crawl at ``v_min`` that may arrive early (the
       narrow band between the slowest cruise and the fastest
       stop-and-go).

    ``launch_below = 0`` (the default) reproduces the plain VT-IM
    semantics where only a velocity can be commanded.  Returns ``None``
    only when ``toa`` is earlier than the kinematic bound ``EToA``.
    """
    _check_inputs(distance, v_init, v_max, a_max)
    horizon = toa - start_time
    etoa = earliest_arrival_time(distance, v_init, v_max, a_max)
    if horizon < etoa - 1e-6:
        return None

    v_cruise = solve_cruise_velocity(
        distance, v_init, horizon, a_max, d_max, v_max, v_min=v_min
    )
    if v_cruise is not None and v_cruise >= launch_below:
        return _cruise_plan(
            v_cruise, distance, v_init, start_time, start_position, a_max, d_max
        )

    if launch_below > 0.0:
        # Only a time-sensitive protocol can command "wait, then
        # launch"; a velocity-only protocol (launch_below == 0) must
        # fall through to a cruise, however slow.
        stop_go = _stop_and_go_plan(
            distance, v_init, start_time, toa, a_max, d_max, v_max
        )
        if stop_go is not None:
            profile = stop_go.profile.shifted(ds=start_position)
            return ArrivalPlan(
                profile=profile,
                arrival_time=stop_go.arrival_time,
                arrival_velocity=stop_go.arrival_velocity,
                stop_and_go=True,
            )

    if v_cruise is not None:
        return _cruise_plan(
            v_cruise, distance, v_init, start_time, start_position, a_max, d_max
        )

    # No plan can arrive as late as requested (either the narrow band
    # between the slowest cruise and the fastest stop-and-go, or the
    # vehicle physically cannot brake before the line).  Produce the
    # *latest feasible* arrival: brake toward v_min and cross wherever
    # the line is actually reached; the caller sees the early arrival
    # in ``arrival_time`` and can reject the slot.
    builder = ProfileBuilder(start_time, start_position, v_init)
    builder.accelerate_to(v_min, d_max if v_init > v_min else a_max)
    covered = builder.length
    builder.hold_distance(max(distance - covered, 0.0))
    profile = builder.build()
    line = start_position + distance
    arrival_time = profile.time_at_position(line)
    if arrival_time is None:
        return None
    return ArrivalPlan(
        profile=profile,
        arrival_time=arrival_time,
        arrival_velocity=profile.velocity_at(arrival_time),
        stop_and_go=False,
    )


def _vt_arrival(
    distance: float, v_init: float, vt: float, start_time: float,
    a_max: float, d_max: float,
) -> Optional[Tuple[float, float]]:
    """``(arrival_time, final_velocity)`` of "accelerate to ``vt`` and
    maintain", or ``None`` when ``vt`` is not positive or the line is
    never reached: :func:`vt_plan`'s ``arrival_time`` and
    ``profile.final_velocity`` bit for bit, by the float operations its
    segments and ``MotionProfile.time_at_position`` perform, without
    building the profile."""
    if vt <= 0:
        return None
    if v_init < 0 or distance < 0:
        raise ValueError("v_init and distance must be non-negative")
    if a_max <= 0 or d_max <= 0:
        raise ValueError("a_max and d_max must be positive")
    # The segments: a speed change unless vt is within _EPS of v_init,
    # then a hold at the running speed ``v`` for the rest of the way.
    t_end = t = float(start_time)
    dv = vt - v_init
    ramp = abs(dv) > _EPS
    covered, v, v_final = 0.0, v_init, 0.0
    if ramp:
        rate = a_max if vt >= v_init else d_max
        accel = math.copysign(rate, dv)
        t_ramp = abs(dv) / rate
        covered = v_init * t_ramp + 0.5 * accel * t_ramp ** 2
        v, v_final = vt, v_init + accel * t_ramp
    hold = covered < distance and distance - covered > _EPS
    if hold:
        if v < _EPS:
            raise ValueError("cannot cover distance at zero velocity")
        t_hold = (distance - covered) / v
        v_final = v
    # time_at_position(distance): the first segment that holds the line.
    if distance <= _EPS:
        return t, v_final
    s_end = 0.0
    if ramp:
        if distance <= covered + _EPS:
            tau = _time_within(v_init, accel, t_ramp, distance)
            if tau is not None:
                return t + tau, v_final
        t_end, s_end = t + t_ramp, covered
    if hold:
        rest = distance - s_end
        hold_len = v * t_hold  # Segment.length; its accel term is 0.0
        if rest <= hold_len + _EPS:
            return t_end + rest / v, v_final  # _time_within at accel 0.0
        t_end, s_end = t_end + t_hold, s_end + hold_len
    # Beyond the plan: the extension at the final velocity.
    if v_final > _EPS:
        return t_end + (distance - s_end) / v_final, v_final
    return None


def vt_plan(
    distance: float,
    v_init: float,
    vt: float,
    start_time: float,
    a_max: float,
    d_max: float,
) -> Optional[ArrivalPlan]:
    """The plain VT-IM manoeuvre: "accelerate to ``vt`` and maintain".

    Unlike :func:`plan_arrival`'s two-phase cruise, the speed change is
    *not* required to finish before the stop line — a stopped vehicle
    at the line simply launches to ``vt`` straight through the box, so
    the line may be crossed mid-ramp.  ``arrival_time`` is whenever the
    front bumper reaches ``distance`` (:func:`_vt_arrival`);
    ``arrival_velocity`` the (possibly still-ramping) speed there.
    """
    arrival = _vt_arrival(distance, v_init, vt, start_time, a_max, d_max)
    if arrival is None:
        return None
    builder = ProfileBuilder(start_time, 0.0, v_init)
    builder.accelerate_to(vt, a_max if vt >= v_init else d_max)
    covered = builder.length
    if covered < distance:
        # Cover the rest explicitly so the profile always contains the
        # line (a no-op speed change would otherwise yield an empty,
        # uninvertible profile).
        builder.hold_distance(distance - covered)
    profile = builder.build()
    arrival_time = arrival[0]
    return ArrivalPlan(
        profile=profile,
        arrival_time=arrival_time,
        arrival_velocity=profile.velocity_at(arrival_time),
        stop_and_go=False,
    )


_UNPLANNED = object()


class VtSolver:
    """Invert :func:`vt_plan`'s arrival time over VT for one request state.

    A VT-IM request hands the scheduler one planner, which it calls for
    up to 17 ToAs from the same state.  The solver searches on
    :func:`_vt_arrival`, which is :func:`vt_plan`'s own arrival time:
    :attr:`etoa` (``v_max``) is computed at construction, the ``v_min``
    arrival on first need.  A call builds only the plan it returns (the
    ``v_max`` and ``v_min`` plans once), so a refusal builds none.

    As the VT-IM planner, the solver also refuses plans whose target
    velocity is below ``v_floor``: commanding 0.3 m/s through the box
    occupies it for ten seconds and snowballs into gridlock.  Staying
    silent makes the vehicle safe-stop at the line and re-request from
    rest, where any free window admits it at full speed, which is the VT
    protocol's only way to "wait".
    """

    __slots__ = ("distance", "v_init", "start_time", "a_max", "d_max",
                 "v_max", "v_min", "tol", "v_floor", "etoa", "_v_fast",
                 "_slow", "_kept")

    def __init__(
        self,
        distance: float,
        v_init: float,
        start_time: float,
        a_max: float,
        d_max: float,
        v_max: float,
        v_min: float = 0.25,
        tol: float = 1e-6,
        v_floor: float = 0.0,
    ):
        if not 0 < v_min <= v_max:
            raise ValueError("need 0 < v_min <= v_max")
        self.distance = distance
        self.v_init = v_init
        self.start_time = start_time
        self.a_max = a_max
        self.d_max = d_max
        self.v_max = v_max
        self.v_min = v_min
        self.tol = tol
        self.v_floor = v_floor
        fast = self._arrival(v_max)
        #: The earliest arrival, the ``v_max`` plan's (None if unplannable).
        self.etoa, self._v_fast = fast if fast is not None else (None, None)
        self._slow = _UNPLANNED  # the v_min arrival, computed on first need
        self._kept = {}  # the v_max and v_min plans, by VT, once built

    def _arrival(self, vt: float) -> Optional[Tuple[float, float]]:
        return _vt_arrival(self.distance, self.v_init, vt, self.start_time,
                           self.a_max, self.d_max)

    def _plan(self, vt: float) -> ArrivalPlan:
        plan = self._kept.get(vt)
        if plan is None:
            plan = vt_plan(self.distance, self.v_init, vt, self.start_time,
                           self.a_max, self.d_max)
            if vt == self.v_max or vt == self.v_min:
                self._kept[vt] = plan
        return plan

    @property
    def fast(self) -> Optional[ArrivalPlan]:
        """The ``v_max`` plan, arriving at :attr:`etoa` (built on first use)."""
        return self._plan(self.v_max) if self.etoa is not None else None

    def __call__(self, toa: float) -> Optional[ArrivalPlan]:
        """The plan whose VT arrives at the line at ``toa``.

        The arrival time is strictly decreasing in VT, so bisection over
        ``[v_min, v_max]`` converges.  Requests earlier than the ``v_max``
        bound are infeasible (``None``); requests later than the
        ``v_min`` bound get the ``v_min`` plan, which arrives *early*:
        callers that care (the scheduler) must check ``arrival_time``.
        A plan whose VT is below ``v_floor`` is refused (``None``); the
        default 0.0 refuses none, as every VT is positive.
        """
        found = self._solve(toa)
        if found is None or found[1] < self.v_floor - 1e-9:
            return None
        return self._plan(found[0])

    def _solve(self, toa: float) -> Optional[Tuple[float, float]]:
        """``(VT, final velocity)`` of the plan :meth:`__call__` returns."""
        etoa = self.etoa
        if etoa is None or toa < etoa - 1e-9:
            return None
        if toa <= etoa + 1e-9:
            # Arrival time plateaus once the line is crossed mid-ramp (any
            # vt above the line-crossing speed arrives at the same moment);
            # prefer the fastest: shortest box occupancy wins.
            return self.v_max, self._v_fast
        slow = self._slow
        if slow is _UNPLANNED:
            slow = self._slow = self._arrival(self.v_min)
        if slow is not None and toa >= slow[0]:
            return self.v_min, slow[1]
        lo, hi = self.v_min, self.v_max  # T(lo) >= toa >= T(hi)
        v_final = self._v_fast  # the final velocity at hi
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            probe = self._arrival(mid)
            if probe is None or probe[0] > toa:
                lo = mid
            else:
                hi, v_final = mid, probe[1]
            if hi - lo < self.tol:
                break
        return hi, v_final

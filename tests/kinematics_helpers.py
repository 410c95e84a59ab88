"""Kinematics that only the tests call.

* :func:`latest_arrival_time` — the dual of
  :func:`repro.kinematics.arrival.earliest_arrival_time`: the latest
  arrival while still moving, braking to a crawl speed as early as
  possible (infinite if the crawl speed is 0, because the vehicle can
  simply park and wait).
* :func:`solve_vt_for_toa` — a one-ToA
  :class:`repro.kinematics.arrival.VtSolver`, the planner the scheduler
  tests hand to ``ConflictScheduler.assign`` one ToA at a time.
* :func:`brake_time` and :func:`max_velocity` — a stop's duration and a
  profile's peak speed.
"""

import math
from typing import Optional

from repro.kinematics.arrival import ArrivalPlan, VtSolver
from repro.kinematics.profiles import MotionProfile

_EPS = 1e-9


def latest_arrival_time(
    distance: float, v_init: float, v_crawl: float, d_max: float
) -> float:
    """Maximum arrival time while still *moving* at ``v_crawl``.

    The vehicle brakes at ``d_max`` down to ``v_crawl`` immediately and
    crawls the rest of the way.  With ``v_crawl == 0`` the vehicle can
    park, so the bound is infinite.
    """
    if v_crawl < 0:
        raise ValueError("v_crawl must be non-negative")
    if d_max <= 0:
        raise ValueError("d_max must be positive")
    if distance < 0:
        raise ValueError("distance must be non-negative")
    if v_crawl < _EPS:
        return math.inf
    v0 = max(v_init, v_crawl)
    t_dec = (v0 - v_crawl) / d_max
    dx = v0 * t_dec - 0.5 * d_max * t_dec ** 2
    if dx >= distance:
        # Cannot even slow down fully within the distance; solve the
        # deceleration-only quadratic for the crossing time.
        disc = v0 ** 2 - 2.0 * d_max * distance
        disc = max(disc, 0.0)
        return (v0 - math.sqrt(disc)) / d_max
    return t_dec + (distance - dx) / v_crawl


def solve_vt_for_toa(
    distance: float,
    v_init: float,
    start_time: float,
    toa: float,
    a_max: float,
    d_max: float,
    v_max: float,
    v_min: float = 0.25,
    tol: float = 1e-6,
) -> Optional[ArrivalPlan]:
    """Find the VT whose ``vt_plan`` arrives at the line at ``toa``.

    A one-ToA :class:`VtSolver`; build the solver instead to solve
    several ToAs from the same state.
    """
    return VtSolver(
        distance, v_init, start_time, a_max, d_max, v_max, v_min=v_min, tol=tol
    )(toa)


def brake_time(speed: float, decel: float) -> float:
    """Time to brake from ``speed`` to rest at ``decel``."""
    if speed < 0:
        raise ValueError("speed must be non-negative")
    if decel <= 0:
        raise ValueError("decel must be positive")
    return speed / decel


def max_velocity(profile: MotionProfile) -> float:
    """Peak velocity over the plan (at a segment boundary)."""
    if not profile.segments:
        return 0.0
    return max(max(seg.v0, seg.v1) for seg in profile.segments)

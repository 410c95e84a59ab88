"""Vehicle kinematics: 1-D motion profiles and arrival planning.

The intersection managers reason about vehicles longitudinally — a
vehicle on an approach lane is a point moving along a 1-D coordinate
with bounded acceleration.  :mod:`repro.kinematics.profiles` provides
piecewise-constant-acceleration :class:`MotionProfile` objects with
exact (closed-form) position/velocity evaluation and inversion.

:mod:`repro.kinematics.arrival` implements the paper's Ch 6 equations:
the earliest time of arrival ``EToA`` reachable under max acceleration,
and :func:`plan_arrival`, which constructs the trajectory the IM
commands (cruise-to-line, or stop-and-go when the assigned slot is far
in the future).

Each computation has one implementation: the analytic engine calls the
same scalar solvers per vehicle that the IMs call per request.
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.kinematics.arrival": (
        "ArrivalPlan", "earliest_arrival_time", "plan_arrival",
        "solve_cruise_velocity",
    ),
    "repro.kinematics.profiles": (
        "MotionProfile", "ProfileBuilder", "Segment", "brake_distance",
    ),
})

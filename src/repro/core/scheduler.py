"""FCFS conflict-aware arrival-slot assignment.

Both VT-style IMs (plain VT-IM and Crossroads) plan vehicles in request
order: the new vehicle receives the earliest time of arrival (ToA) that
is kinematically reachable *and* keeps its buffered body disjoint in
time from every already-scheduled conflicting vehicle on every shared
conflict interval.

Occupancy model
---------------
Every reservation carries the vehicle's full
:class:`~repro.kinematics.MotionProfile` (which extends at its final
velocity beyond its last segment — "maintain until exit").  With the
stop line at profile position ``line``, the buffered body
``[s_front - L - b, s_front + b]`` occupies a conflict interval
``[s_in, s_out]`` (arc lengths from the stop line) during::

    [ t(line + s_in - b) ,  t(line + s_out + L + b) ]

where ``t(s)`` is the profile's exact position-inversion.  This is
exact for accelerating, cruising and stop-and-go trajectories alike —
in particular a vehicle launching from rest at the line is modelled
accelerating *through* the box, not crawling at its line-crossing
speed.

FCFS means a later vehicle may enter each interval only after every
earlier conflicting vehicle has left it.  Because pushing a vehicle's
ToA changes its whole trajectory (a later slot may mean a slower
approach or a timed launch), the solver iterates
(ToA -> plan -> constraint violation -> ToA) to a fixed point; the
push is monotone so a few iterations suffice, and the final candidate
is re-verified before committing — the scheduler never books a plan
that violates a constraint.

Memoised occupancy
------------------
Every candidate plan is checked against every booked conflicting
crossing, so the same inversions recur across the iterations of one
request and across requests.  A booked :class:`ScheduledCrossing` is
fixed once committed — its profile, stop-line position, body length
and buffer never change (a retransmitting vehicle gets a *new* entry;
live config such as the WC-RTD estimate only shapes future plans) — so
each entry computes its window over a conflict interval once and
keeps it.  The memo lives on the entry: ``release``, ``prune`` and the
``max_book`` cap drop it together with the reservation.  Within one
``_violation`` call the candidate's own entry time is likewise
inverted once per distinct ``a_in``.  Both are pure caches of the same
closed-form inversions, so every slot is bit-for-bit what the
unmemoised check computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.geometry.conflicts import ConflictTable
from repro.geometry.layout import Movement
from repro.kinematics.arrival import ArrivalPlan
from repro.kinematics.profiles import MotionProfile
from repro.obs.events import NULL_LOG

__all__ = ["ConflictScheduler", "ScheduledCrossing", "SlotAssignment"]

#: A planner maps a requested ToA to a concrete plan (or None).
Planner = Callable[[float], Optional[ArrivalPlan]]


@dataclass
class ScheduledCrossing:
    """One committed reservation in the scheduler's book."""

    vehicle_id: int
    movement: Movement
    profile: MotionProfile
    #: Profile position of the stop line.
    line: float
    body_length: float
    buffer: float
    toa: float
    #: Time the buffered tail clears the end of the vehicle's own path.
    clear_time: float
    #: ``(s_in, s_out) -> (t_in, t_out)`` windows computed so far.
    _windows: Dict[Tuple[float, float], Tuple[float, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def interval_occupancy(self, s_in: float, s_out: float) -> "tuple[float, float]":
        """Entry/exit times of the buffered body over ``[s_in, s_out]``.

        ``s_in``/``s_out`` are arc lengths from this vehicle's stop
        line.  A profile that never clears the interval (ends stopped
        inside it) occupies it forever.  Each window is computed once
        per entry (see the module docstring).
        """
        window = self._windows.get((s_in, s_out))
        if window is None:
            t_in = self.profile.time_at_position(self.line + s_in - self.buffer)
            t_out = self.profile.time_at_position(
                self.line + s_out + self.body_length + self.buffer
            )
            if t_in is None:
                t_in = self.profile.start_time
            if t_out is None:
                t_out = math.inf
            window = self._windows[(s_in, s_out)] = (t_in, t_out)
        return window


@dataclass(frozen=True)
class SlotAssignment:
    """Result of a scheduling query."""

    toa: float
    plan: ArrivalPlan

    @property
    def v_cross(self) -> float:
        """Velocity when crossing the stop line."""
        return self.plan.arrival_velocity


class ConflictScheduler:
    """FCFS slot assigner over a :class:`ConflictTable`.

    Parameters
    ----------
    conflicts:
        Precomputed pairwise conflict intervals.
    v_min:
        Crawl-speed floor assumed by planners (informational here).
    max_book:
        Hard cap on retained reservations (memory guard).
    """

    #: Waitlist entries older than this without a refresh are dropped
    #: (the vehicle exited, or is deferring behind its leader).
    WAITLIST_STALE = 4.0

    def __init__(
        self,
        conflicts: ConflictTable,
        v_min: float = 0.25,
        max_book: int = 4096,
    ):
        if v_min <= 0:
            raise ValueError("v_min must be positive")
        self.conflicts = conflicts
        self.v_min = v_min
        self.max_book = max_book
        self._book: List[ScheduledCrossing] = []
        self._by_vehicle: Dict[int, ScheduledCrossing] = {}
        #: FCFS waitlist: vehicle_id -> (first_seen, movement, last_seen).
        self._waiting: Dict[int, "tuple[float, Movement, float]"] = {}
        #: Number of reservation comparisons done (compute-cost proxy).
        self.comparisons = 0
        #: Observability sink + sim-clock callable; the world injects
        #: both when tracing (the scheduler itself is clock-free).
        self.obs = NULL_LOG
        self.obs_now: Optional[Callable[[], float]] = None

    def _emit(self, kind: str, **data) -> None:
        if self.obs.enabled and self.obs_now is not None:
            self.obs.emit(kind, self.obs_now(), "sched", **data)

    # -- FCFS waitlist -------------------------------------------------------
    def note_request(self, vehicle_id: int, movement: Movement, now: float) -> None:
        """Register/refresh a requester for FCFS admission ordering.

        A vehicle that cannot be granted a slot (it is parked at the
        line and the box is busy) must not be starved by later-arriving
        traffic booking the next free window: admission is gated on
        request seniority, not just on the reservation book.
        """
        first_seen, _, _ = self._waiting.get(vehicle_id, (now, movement, now))
        self._waiting[vehicle_id] = (first_seen, movement, now)
        stale = [
            vid
            for vid, (_, _, seen) in self._waiting.items()
            if seen < now - self.WAITLIST_STALE
        ]
        for vid in stale:
            del self._waiting[vid]

    def _blocked_by_senior_waiter(self, vehicle_id: int, movement: Movement) -> bool:
        """True if an older conflicting requester is still unserved."""
        mine = self._waiting.get(vehicle_id)
        my_key = (mine[0], vehicle_id) if mine else (math.inf, vehicle_id)
        for vid, (first_seen, other_movement, _) in self._waiting.items():
            if vid == vehicle_id:
                continue
            if (first_seen, vid) < my_key and self.conflicts.conflicts(
                movement, other_movement
            ):
                return True
        return False

    # -- bookkeeping --------------------------------------------------------
    @property
    def book(self) -> List[ScheduledCrossing]:
        """Currently retained reservations (oldest first)."""
        return list(self._book)

    def holds(self, vehicle_id: int) -> bool:
        """True while ``vehicle_id`` has a committed reservation.

        The safety oracle uses this as the IM-side ground truth when a
        vehicle's body crosses the stop line: an entry without a live
        reservation is a protocol violation (or a scripted rogue).
        """
        return vehicle_id in self._by_vehicle

    def reservation_for(self, vehicle_id: int) -> Optional[ScheduledCrossing]:
        """The vehicle's committed reservation, or None."""
        return self._by_vehicle.get(vehicle_id)

    def release(self, vehicle_id: int) -> bool:
        """Drop a vehicle's reservation (on exit notification)."""
        entry = self._by_vehicle.pop(vehicle_id, None)
        if entry is None:
            return False
        self._book.remove(entry)
        self._emit("sched.release", vehicle_id=vehicle_id, book=len(self._book))
        return True

    def prune(self, now: float, grace: float = 5.0) -> int:
        """Drop reservations whose tail cleared more than ``grace`` ago."""
        keep = [s for s in self._book if s.clear_time >= now - grace]
        dropped = len(self._book) - len(keep)
        if dropped:
            self._book = keep
            self._by_vehicle = {s.vehicle_id: s for s in keep}
        return dropped

    # -- constraint evaluation ------------------------------------------------
    def _entry_for(
        self,
        profile: MotionProfile,
        line: float,
        s_in: float,
        buffer: float,
    ) -> float:
        t = profile.time_at_position(line + s_in - buffer)
        return t if t is not None else profile.start_time

    def _violation(
        self,
        movement: Movement,
        plan: ArrivalPlan,
        body_length: float,
        buffer: float,
        exclude_id: int,
    ) -> float:
        """Largest required ToA push against the current book (0 if ok)."""
        profile = plan.profile
        line = profile.position_at(plan.arrival_time)
        intervals = self.conflicts.intervals
        #: a_in -> the candidate's entry time (one inversion each).
        entries: Dict[float, float] = {}
        push = 0.0
        for other in self._book:
            if other.vehicle_id == exclude_id:
                continue
            self.comparisons += 1
            for iv in intervals(movement, other.movement):
                o_out = other.interval_occupancy(iv.b_in, iv.b_out)[1]
                t_in = entries.get(iv.a_in)
                if t_in is None:
                    t_in = entries[iv.a_in] = self._entry_for(
                        profile, line, iv.a_in, buffer
                    )
                if t_in < o_out:
                    push = max(push, o_out - t_in)
        return push

    def assign(
        self,
        vehicle_id: int,
        movement: Movement,
        planner: Planner,
        etoa: float,
        body_length: float,
        buffer: float,
        max_iterations: int = 16,
    ) -> Optional[SlotAssignment]:
        """Assign the earliest safe slot reachable via ``planner``.

        ``planner(toa)`` must return a plan arriving at the stop line
        no later than ``toa`` (ideally exactly); ``etoa`` seeds the
        search with the kinematic lower bound.  Returns ``None`` when
        no verifiable slot exists from the current state (the IM then
        stays silent and the vehicle retries, per the retransmit
        clause).
        """
        if self._blocked_by_senior_waiter(vehicle_id, movement):
            self._emit("sched.blocked", vehicle_id=vehicle_id,
                       movement=movement.key)
            return None  # FCFS: an older conflicting requester goes first
        toa = etoa
        final: Optional[ArrivalPlan] = None
        for _ in range(max_iterations):
            plan = planner(toa)
            if plan is None:
                return None
            push = self._violation(movement, plan, body_length, buffer, vehicle_id)
            if push <= 1e-6:
                final = plan
                break
            toa = max(toa, plan.arrival_time) + push + 1e-6
        if final is None:
            plan = planner(toa)
            if plan is None:
                return None
            if self._violation(movement, plan, body_length, buffer, vehicle_id) > 1e-6:
                return None  # unservable from this state; stay silent
            final = plan

        profile = final.profile
        line = profile.position_at(final.arrival_time)
        path_len = self.conflicts.geometry.crossing_distance(movement)
        clear = profile.time_at_position(line + path_len + body_length + buffer)
        entry = ScheduledCrossing(
            vehicle_id=vehicle_id,
            movement=movement,
            profile=profile,
            line=line,
            body_length=body_length,
            buffer=buffer,
            toa=final.arrival_time,
            clear_time=clear if clear is not None else math.inf,
        )
        # Replace any stale reservation for a retransmitting vehicle.
        self.release(vehicle_id)
        self._waiting.pop(vehicle_id, None)
        self._book.append(entry)
        self._by_vehicle[vehicle_id] = entry
        if len(self._book) > self.max_book:
            dropped = self._book.pop(0)
            self._by_vehicle.pop(dropped.vehicle_id, None)
        self._emit(
            "sched.assign", vehicle_id=vehicle_id, movement=movement.key,
            toa=final.arrival_time, book=len(self._book),
        )
        return SlotAssignment(toa=final.arrival_time, plan=final)

    def __len__(self) -> int:
        return len(self._book)

"""Analytic (ideal-vehicle) fast engine.

The paper's own scalability study ran in Matlab with idealised vehicle
models — no actuation noise, no car-following, exact plan execution.
This module is that simulator: it replays an arrival list through the
IMs' own booking functions (:func:`~repro.core.crossroads.book_crossroads`
and :func:`~repro.core.vtim.book_vtim`, which the live IMs call too) and
compute-delay model, but vehicles execute their assigned profiles
exactly and approach-lane interactions are reduced to the scheduler's
same-lane exclusion.  The engine supplies only what it alone knows: the
ideal vehicle's state, the configured base buffer, and when its reply
lands.

Use it for large parameter sweeps (the full 160-car Fig 7.2 grid runs
in seconds); use :class:`repro.sim.World` when protocol timing, noise
and ground-truth safety matter.  ``tests/test_sim_analytic.py`` checks
the two engines agree on uncongested traffic.

Supported policies: :data:`ANALYTIC_POLICIES`, ``vt-im`` and
``crossroads`` (the VT-style IMs the scheduler serves).  AIM's
trial-and-error loop is intrinsically tied to closed-loop vehicle state
and is only simulated by the micro engine.

The engine is event-driven.  A queue of ``(time, index, attempt)``
request attempts, ordered by that tuple, drives it; ``index`` is the
vehicle's place in arrival order.  Like the live agents, a vehicle
defers while its same-lane leader (the previous arrival on its
approach, found once up front) is unbooked.  Polling for the leader
every ``retry_interval`` seconds would be 90% of the queue's traffic on
the paper-sized grid, so a deferred vehicle parks on its leader
instead.  When the leader is booked, at attempt time ``t_L``, the engine
steps the follower's retry chain (``t = t + retry_interval``, the
polling loop's own float additions, capped by ``max_retries``) and
queues its first attempt with ``t >= t_L``.  That is exactly the attempt
that would have found the leader booked: a leader's index is lower, so
the queue takes the booking before every attempt at ``t >= t_L`` and
after every one at ``t < t_L``.  A deferred attempt touches only the
follower's own :class:`_VehicleState`, so the skipped ones are replayed
in order with :meth:`~_VehicleState.coast_and_brake_to` while the
vehicle still moves (at rest that call only stamps ``time``, which no
later step reads).  A follower whose leader gives up stays parked, as
the polling follower would have deferred until its own cap.  A vehicle
thus has at most one attempt queued, and none once booked.  Each
outcome is bit for bit the polling loop's; the polling loop is the
reference in ``tests/analytic_reference.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.base import IMConfig
from repro.core.compute import LinearComputeModel
from repro.core.crossroads import book_crossroads
from repro.core.registry import normalize_policy
from repro.core.scheduler import ConflictScheduler
from repro.core.vtim import book_vtim
from repro.geometry.conflicts import ConflictTable
from repro.geometry.layout import IntersectionGeometry
from repro.kinematics.arrival import earliest_arrival_time
from repro.sim.metrics import SimResult
from repro.traffic.generator import Arrival
from repro.vehicle.record import VehicleRecord
from repro.vehicle.spec import VehicleInfo

__all__ = ["ANALYTIC_POLICIES", "AnalyticConfig", "run_analytic"]

#: The policies the engine runs: the VT-style IMs the scheduler serves.
ANALYTIC_POLICIES = ("vt-im", "crossroads")


@dataclass
class AnalyticConfig:
    """Knobs of the analytic engine (defaults match the micro world)."""

    im: IMConfig = None
    #: One-way network latency assumed per message, seconds.
    net_delay: float = 0.003
    #: Gap between a failed request and the retry, seconds.
    retry_interval: float = 0.25
    #: Hard cap on request attempts per vehicle, deferred ones included
    #: (at least 1; plenty by default, it guards degenerate input).
    max_retries: int = 4000

    def __post_init__(self):
        if self.im is None:
            self.im = IMConfig()
        if self.net_delay < 0:
            raise ValueError("net_delay must be non-negative")
        if self.retry_interval <= 0:
            raise ValueError("retry_interval must be positive")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")


@dataclass
class _VehicleState:
    """Kinematic state of one vehicle between request attempts."""

    arrival: Arrival
    index: int
    #: Position of the front bumper, metres from the transmission line.
    position: float
    velocity: float
    time: float

    def coast_and_brake_to(self, t: float, approach: float, stop_margin: float):
        """Advance to time ``t``: hold speed, then safe-stop at the line.

        Mirrors the agent's behaviour while unscheduled: cruise at the
        current speed until the safe-stop clause triggers, then brake
        at ``d_max`` so the vehicle parks ``stop_margin`` before the
        line.
        """
        spec = self.arrival.spec
        dt = t - self.time
        if dt <= 0:
            return
        v = self.velocity
        if v <= 0:
            self.time = t
            return
        # Distance at which braking must start.
        brake_dist = v * v / (2.0 * spec.d_max)
        trigger = approach - stop_margin - brake_dist
        cruise_room = max(trigger - self.position, 0.0)
        t_cruise = min(dt, cruise_room / v) if v > 0 else dt
        self.position += v * t_cruise
        remaining = dt - t_cruise
        if remaining > 0:
            # Braking phase.
            t_stop = v / spec.d_max
            t_brake = min(remaining, t_stop)
            self.position += v * t_brake - 0.5 * spec.d_max * t_brake ** 2
            self.velocity = max(v - spec.d_max * t_brake, 0.0)
        self.time = t


def run_analytic(
    policy: str,
    arrivals: Sequence[Arrival],
    config: Optional[AnalyticConfig] = None,
    geometry: Optional[IntersectionGeometry] = None,
    conflicts: Optional[ConflictTable] = None,
) -> SimResult:
    """Run an arrival list through the ideal-vehicle engine.

    Returns the same :class:`~repro.sim.metrics.SimResult` shape as the
    micro engine (network/safety fields are zeroed: there is no radio
    or ground-truth monitor here).
    """
    policy = normalize_policy(policy)
    if policy not in ANALYTIC_POLICIES:
        raise ValueError(
            f"analytic engine supports {', '.join(ANALYTIC_POLICIES)}, "
            f"not {policy!r}"
        )
    config = config if config is not None else AnalyticConfig()
    geometry = geometry if geometry is not None else IntersectionGeometry()
    if conflicts is None:
        conflicts = ConflictTable(geometry)
    scheduler = ConflictScheduler(conflicts, v_min=config.im.v_min)
    compute = LinearComputeModel()
    im_cfg = config.im
    approach = geometry.approach_length
    stop_margin = 0.05

    is_crossroads = policy == "crossroads"

    # Event queue of pending request attempts: (time, index, attempt).
    states: List[_VehicleState] = []
    records: List[VehicleRecord] = []
    # What each vehicle would send as its VehicleInfo, with the
    # configured base buffer.
    infos: List[VehicleInfo] = []
    pending: List[Tuple[float, int, int]] = []
    # Each vehicle's same-lane leader: the latest earlier arrival on
    # its approach (None for the first vehicle of a lane).
    leaders: List[Optional[int]] = []
    last_on_lane: Dict[object, int] = {}
    ordered = sorted(arrivals, key=lambda a: a.time)
    for index, arrival in enumerate(ordered):
        spec = arrival.spec
        states.append(_VehicleState(
            arrival=arrival,
            index=index,
            position=0.0,
            velocity=min(arrival.speed, spec.v_max),
            time=arrival.time,
        ))
        record = VehicleRecord(
            vehicle_id=index,
            movement_key=arrival.movement.key,
            spawn_time=arrival.time,
            spawn_speed=min(arrival.speed, spec.v_max),
        )
        # Unimpeded spawn-to-box-exit time at full throttle.
        record.ideal_transit = earliest_arrival_time(
            approach + geometry.crossing_distance(arrival.movement) + spec.length,
            record.spawn_speed, spec.v_max, spec.a_max,
        )
        records.append(record)
        infos.append(VehicleInfo(
            vehicle_id=index, spec=spec, movement=arrival.movement,
            buffer=im_cfg.base_buffer,
        ))
        lane = arrival.movement.entry
        leaders.append(last_on_lane.get(lane))
        last_on_lane[lane] = index
        pending.append((arrival.time, index, 0))

    heapq.heapify(pending)
    im_free = 0.0
    messages = 0
    retry_interval = config.retry_interval
    max_retries = config.max_retries
    # leader -> (follower, time, attempt): the follower's last deferred
    # attempt, replayed forward when the leader is booked.
    parked: Dict[int, Tuple[int, float, int]] = {}

    def wake(follower: int, t: float, attempt: int, t_booked: float) -> None:
        """Queue ``follower``'s first attempt at or after ``t_booked``.

        Steps its retry chain as the polling loop would have, each
        deferred attempt before ``t_booked`` coasting it on.
        """
        state = states[follower]
        while attempt + 1 < max_retries:
            t = t + retry_interval
            attempt += 1
            if t >= t_booked:
                heapq.heappush(pending, (t, follower, attempt))
                return
            if state.velocity > 0:
                state.coast_and_brake_to(t, approach, stop_margin)

    while pending:
        t_req, index, attempt = heapq.heappop(pending)
        state = states[index]
        record = records[index]
        spec = state.arrival.spec
        movement = state.arrival.movement

        # Vehicle state at the request instant (coast + safe-stop).
        state.coast_and_brake_to(t_req, approach, stop_margin)

        # Same deferral as the live agents: while the same-lane leader
        # is unscheduled, requesting would only book unusable slots and
        # gate cross traffic through the FCFS waitlist.  The vehicle
        # waits for the leader's booking to wake it.
        leader = leaders[index]
        if leader is not None and records[leader].exit_time is None:
            parked[leader] = (index, t_req, attempt)
            continue
        record.requests_sent += 1
        messages += 1
        if state.velocity < 0.05:
            record.came_to_stop = True

        # FIFO single-core IM: queueing then service.
        t_arrive_im = t_req + config.net_delay
        t_serve = max(t_arrive_im, im_free)
        scheduler.prune(t_serve)
        scheduler.note_request(index, movement, t_serve)
        service = compute.charge(reservations=len(scheduler))
        im_free = t_serve + service

        # Book as the live IMs do, from the ideal vehicle's state and
        # the instant the reply lands.
        t_resp = im_free + config.net_delay
        dt = approach - state.position
        if is_crossroads:
            booked = book_crossroads(
                scheduler=scheduler, config=im_cfg, info=infos[index],
                tt=t_req, dt=dt, vc=state.velocity, reply_at=t_resp,
            )
            assignment = None if booked is None else booked[1]
        else:
            assignment = book_vtim(
                scheduler=scheduler, config=im_cfg, info=infos[index],
                dt=dt, vc=state.velocity, now=t_serve,
            )
        messages += 1

        if assignment is None:
            if attempt + 1 >= max_retries:
                continue  # give up; vehicle never crosses (degenerate)
            heapq.heappush(pending, (t_resp + retry_interval, index, attempt + 1))
            continue

        # Ideal execution: the committed profile is followed exactly.
        record.rtds.append(t_resp - t_req)
        profile = assignment.plan.profile
        line_pos = profile.position_at(assignment.toa)
        record.enter_time = assignment.toa
        path_len = geometry.crossing_distance(movement)
        exit_time = profile.time_at_position(line_pos + path_len + spec.length)
        record.exit_time = exit_time if exit_time is not None else assignment.toa
        record.despawn_time = record.exit_time
        messages += 1  # exit notification
        # The reservation stays booked until its clear time passes
        # (scheduler.prune drops it), exactly as live exits would.
        if index in parked:
            wake(*parked.pop(index), t_req)

    sim_end = max(
        (r.exit_time for r in records if r.exit_time is not None),
        default=0.0,
    )
    return SimResult(
        policy=policy,
        records=records,
        sim_duration=sim_end,
        compute_time=compute.total_time,
        compute_requests=compute.requests,
        messages_sent=messages,
    )

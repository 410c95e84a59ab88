"""Analytic (ideal-vehicle) fast engine.

The paper's own scalability study ran in Matlab with idealised vehicle
models — no actuation noise, no car-following, exact plan execution.
This module is that simulator: it replays an arrival list through the
*real* schedulers and compute-delay models, but vehicles execute their
assigned profiles exactly and approach-lane interactions are reduced to
the scheduler's same-lane exclusion.

Use it for large parameter sweeps (the full 160-car Fig 7.2 grid runs
in seconds); use :class:`repro.sim.World` when protocol timing, noise
and ground-truth safety matter.  ``tests/test_sim_analytic.py`` checks
the two engines agree on uncongested traffic.

Supported policies: ``vt-im`` and ``crossroads`` (the VT-style IMs the
scheduler serves).  AIM's trial-and-error loop is intrinsically tied to
closed-loop vehicle state and is only simulated by the micro engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.base import IMConfig
from repro.core.compute import LinearComputeModel
from repro.core.registry import normalize_policy
from repro.core.scheduler import ConflictScheduler
from repro.geometry.conflicts import ConflictTable
from repro.geometry.layout import IntersectionGeometry
from repro.kinematics.arrival import (
    earliest_arrival_time,
    plan_arrival,
    solve_vt_for_toa,
    vt_plan,
)
from repro.sim.metrics import SimResult
from repro.traffic.generator import Arrival
from repro.vehicle.record import VehicleRecord

__all__ = ["AnalyticConfig", "run_analytic"]


@dataclass
class AnalyticConfig:
    """Knobs of the analytic engine (defaults match the micro world)."""

    im: IMConfig = None
    #: One-way network latency assumed per message, seconds.
    net_delay: float = 0.003
    #: Gap between a failed request and the retry, seconds.
    retry_interval: float = 0.25
    #: Hard cap on retries per vehicle (plenty; guards degenerate input).
    max_retries: int = 4000

    def __post_init__(self):
        if self.im is None:
            self.im = IMConfig()
        if self.net_delay < 0:
            raise ValueError("net_delay must be non-negative")
        if self.retry_interval <= 0:
            raise ValueError("retry_interval must be positive")


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
    if policy not in ("vt-im", "crossroads"):
        raise ValueError(f"analytic engine supports VT-style IMs, not {policy!r}")
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
    rtd_buffer = 0.0 if is_crossroads else im_cfg.wc_rtd * im_cfg.v_max

    # Event queue of pending request attempts: (time, index).
    states: Dict[int, _VehicleState] = {}
    records: Dict[int, VehicleRecord] = {}
    pending: List = []
    ordered = sorted(arrivals, key=lambda a: a.time)
    for index, arrival in enumerate(ordered):
        spec = arrival.spec
        states[index] = _VehicleState(
            arrival=arrival,
            index=index,
            position=0.0,
            velocity=min(arrival.speed, spec.v_max),
            time=arrival.time,
        )
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
        records[index] = record
        pending.append((arrival.time, index, 0))

    import heapq

    heapq.heapify(pending)
    im_free = 0.0
    messages = 0

    def unserved_leader(index: int) -> Optional[int]:
        """Most recent earlier same-lane vehicle not yet scheduled."""
        lane = states[index].arrival.movement.entry
        best = None
        for j in range(index - 1, -1, -1):
            if states[j].arrival.movement.entry is lane:
                if records[j].exit_time is None:
                    best = j
                break
        return best

    while pending:
        t_req, index, attempt = heapq.heappop(pending)
        state = states[index]
        record = records[index]
        if record.exit_time is not None:
            continue
        spec = state.arrival.spec
        movement = state.arrival.movement

        # Vehicle state at the request instant (coast + safe-stop).
        state.coast_and_brake_to(t_req, approach, stop_margin)

        # Same deferral as the live agents: while the same-lane leader
        # is unscheduled, requesting would only book unusable slots and
        # gate cross traffic through the FCFS waitlist.
        if unserved_leader(index) is not None:
            if attempt + 1 < config.max_retries:
                heapq.heappush(
                    pending, (t_req + config.retry_interval, index, attempt + 1)
                )
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

        distance = max(approach - state.position, 0.01)
        v_init = min(state.velocity, spec.v_max)
        v_max = min(spec.v_max, im_cfg.v_max)

        if is_crossroads:
            start = max(t_req + im_cfg.wc_rtd, im_free + config.net_delay)
            # Vehicle holds v_init until TE (bounded by the line).
            de = max(distance - v_init * (start - t_req), 0.01)

            def planner(toa, de=de, v_init=v_init, start=start, spec=spec, v_max=v_max):
                return plan_arrival(
                    de, v_init, start, toa, spec.a_max, spec.d_max, v_max,
                    v_min=im_cfg.v_min, launch_below=im_cfg.v_arrive_floor,
                )

            etoa = start + earliest_arrival_time(de, v_init, v_max, spec.a_max)
            plan_distance = de
        else:
            start = t_serve

            def planner(toa, distance=distance, v_init=v_init, start=start,
                        spec=spec, v_max=v_max):
                plan = solve_vt_for_toa(
                    distance, v_init, start, toa, spec.a_max, spec.d_max, v_max,
                    v_min=im_cfg.v_min,
                )
                if plan is None:
                    return None
                if plan.profile.final_velocity < im_cfg.v_arrive_floor - 1e-9:
                    return None
                return plan

            etoa_plan = vt_plan(distance, v_init, v_max, start, spec.a_max, spec.d_max)
            etoa = etoa_plan.arrival_time if etoa_plan else start
            plan_distance = distance

        assignment = scheduler.assign(
            vehicle_id=index,
            movement=movement,
            planner=planner,
            etoa=etoa,
            body_length=spec.length,
            buffer=state.arrival.spec.width * 0.0 + im_cfg.base_buffer + rtd_buffer,
        )
        t_resp = im_free + config.net_delay
        messages += 1

        if assignment is None:
            if attempt + 1 >= config.max_retries:
                continue  # give up; vehicle never crosses (degenerate)
            heapq.heappush(
                pending, (t_resp + config.retry_interval, index, attempt + 1)
            )
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

    sim_end = max(
        (r.exit_time for r in records.values() if r.exit_time is not None),
        default=0.0,
    )
    return SimResult(
        policy=policy,
        records=list(records.values()),
        sim_duration=sim_end,
        compute_time=compute.total_time,
        compute_requests=compute.requests,
        messages_sent=messages,
    )

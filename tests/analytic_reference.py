"""Polling references for the analytic engine and the VT solver (tests only).

:func:`repro.sim.analytic.run_analytic` parks a vehicle whose same-lane
leader is unbooked and wakes it when the leader is booked, and
:class:`repro.kinematics.arrival.VtSolver` builds each request's
``v_max`` and ``v_min`` plans once.  The straightforward versions they
replaced live here, not in ``src/``, as the references the production
code must equal bit for bit (``tests/test_analytic_reference.py``):

* :func:`run_analytic_polling` — the engine loop that re-queues a
  deferred vehicle every ``retry_interval`` and rescans the arrival
  list backwards for its leader at every attempt;
* :func:`solve_vt_for_toa_rebuilding` — the VT solve that rebuilds the
  ``v_max`` and ``v_min`` plans on every call and plans the bisection's
  final speed again.

:func:`run_analytic_polling` takes an optional ``log`` list and appends
``(kind, time, index)`` for every attempt, ``kind`` being ``"defer"``
(leader unbooked), ``"reject"`` or ``"book"``, so a test can see which
branches a draw exercised.
"""

import heapq
from typing import Dict, List, Optional, Sequence

from repro.core.compute import LinearComputeModel
from repro.core.registry import normalize_policy
from repro.core.scheduler import ConflictScheduler
from repro.geometry.conflicts import ConflictTable
from repro.geometry.layout import IntersectionGeometry
from repro.kinematics.arrival import (
    ArrivalPlan,
    earliest_arrival_time,
    plan_arrival,
    vt_plan,
)
from repro.sim.analytic import AnalyticConfig, _VehicleState
from repro.sim.metrics import SimResult
from repro.traffic.generator import Arrival
from repro.vehicle.record import VehicleRecord


def solve_vt_for_toa_rebuilding(
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
    """``solve_vt_for_toa`` as it was: every call plans from scratch."""
    if not 0 < v_min <= v_max:
        raise ValueError("need 0 < v_min <= v_max")
    fast = vt_plan(distance, v_init, v_max, start_time, a_max, d_max)
    if fast is None or toa < fast.arrival_time - 1e-9:
        return None
    if toa <= fast.arrival_time + 1e-9:
        return fast
    slow = vt_plan(distance, v_init, v_min, start_time, a_max, d_max)
    if slow is not None and toa >= slow.arrival_time:
        return slow
    lo, hi = v_min, v_max  # T(lo) >= toa >= T(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        plan = vt_plan(distance, v_init, mid, start_time, a_max, d_max)
        if plan is None or plan.arrival_time > toa:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return vt_plan(distance, v_init, hi, start_time, a_max, d_max)


def run_analytic_polling(
    policy: str,
    arrivals: Sequence[Arrival],
    config: Optional[AnalyticConfig] = None,
    geometry: Optional[IntersectionGeometry] = None,
    conflicts: Optional[ConflictTable] = None,
    log: Optional[list] = None,
) -> SimResult:
    """``run_analytic`` as it was: deferred vehicles poll their leader."""
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
        record.ideal_transit = earliest_arrival_time(
            approach + geometry.crossing_distance(arrival.movement) + spec.length,
            record.spawn_speed, spec.v_max, spec.a_max,
        )
        records[index] = record
        pending.append((arrival.time, index, 0))

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

        state.coast_and_brake_to(t_req, approach, stop_margin)

        if unserved_leader(index) is not None:
            if log is not None:
                log.append(("defer", t_req, index))
            if attempt + 1 < config.max_retries:
                heapq.heappush(
                    pending, (t_req + config.retry_interval, index, attempt + 1)
                )
            continue
        record.requests_sent += 1
        messages += 1
        if state.velocity < 0.05:
            record.came_to_stop = True

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
            de = max(distance - v_init * (start - t_req), 0.01)

            def planner(toa, de=de, v_init=v_init, start=start, spec=spec, v_max=v_max):
                return plan_arrival(
                    de, v_init, start, toa, spec.a_max, spec.d_max, v_max,
                    v_min=im_cfg.v_min, launch_below=im_cfg.v_arrive_floor,
                )

            etoa = start + earliest_arrival_time(de, v_init, v_max, spec.a_max)
        else:
            start = t_serve

            def planner(toa, distance=distance, v_init=v_init, start=start,
                        spec=spec, v_max=v_max):
                plan = solve_vt_for_toa_rebuilding(
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
            if log is not None:
                log.append(("reject", t_req, index))
            if attempt + 1 >= config.max_retries:
                continue
            heapq.heappush(
                pending, (t_resp + config.retry_interval, index, attempt + 1)
            )
            continue

        if log is not None:
            log.append(("book", t_req, index))
        record.rtds.append(t_resp - t_req)
        profile = assignment.plan.profile
        line_pos = profile.position_at(assignment.toa)
        record.enter_time = assignment.toa
        path_len = geometry.crossing_distance(movement)
        exit_time = profile.time_at_position(line_pos + path_len + spec.length)
        record.exit_time = exit_time if exit_time is not None else assignment.toa
        record.despawn_time = record.exit_time
        messages += 1

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

"""Property-based safety and scheduler-invariant tests.

The reproduction's core guarantee — no two vehicle bodies ever overlap,
under any policy, for any workload — is exercised here with randomised
scenarios (hypothesis drives the workload, each run uses the full
protocol stack), and the scheduler's occupancy-disjointness invariant
is fuzzed directly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.scheduler import ConflictScheduler
from repro.geometry import Approach, ConflictTable, IntersectionGeometry, Movement, Turn
from repro.kinematics.arrival import plan_arrival, vt_plan
from repro.sim import run_scenario
from repro.traffic import Arrival
from tests.kinematics_helpers import solve_vt_for_toa


GEOMETRY = IntersectionGeometry()
CONFLICTS = ConflictTable(GEOMETRY)
MOVEMENTS = GEOMETRY.movements


@st.composite
def workloads(draw):
    """Small random arrival lists with per-lane headway respected."""
    n = draw(st.integers(3, 8))
    last_per_lane = {}
    arrivals = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(0.0, 1.5))
        movement = MOVEMENTS[draw(st.integers(0, len(MOVEMENTS) - 1))]
        lane = movement.entry
        t_eff = max(t, last_per_lane.get(lane, -10.0) + 0.7)
        last_per_lane[lane] = t_eff
        arrivals.append(
            Arrival(
                time=t_eff,
                movement=movement,
                speed=draw(st.floats(1.5, 3.0)),
            )
        )
    return sorted(arrivals, key=lambda a: a.time)


class TestGroundTruthSafety:
    @given(workloads(), st.integers(0, 10 ** 6))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_crossroads_never_collides(self, arrivals, seed):
        result = run_scenario("crossroads", arrivals, seed=seed)
        assert result.collisions == 0
        assert result.n_finished == len(arrivals)

    @given(workloads(), st.integers(0, 10 ** 6))
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_vtim_never_collides(self, arrivals, seed):
        result = run_scenario("vt-im", arrivals, seed=seed)
        assert result.collisions == 0
        assert result.n_finished == len(arrivals)

    @given(workloads(), st.integers(0, 10 ** 6))
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_aim_never_collides(self, arrivals, seed):
        result = run_scenario("aim", arrivals, seed=seed)
        assert result.collisions == 0
        assert result.n_finished == len(arrivals)


class TestSchedulerInvariant:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(MOVEMENTS) - 1),
                st.floats(0.0, 10.0),   # request time offsets
                st.floats(0.5, 3.0),    # initial speeds
                st.booleans(),          # crossroads-style planner?
            ),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_committed_occupancies_pairwise_disjoint(self, requests):
        """However requests arrive, the book never contains two
        reservations that overlap on any shared conflict interval."""
        scheduler = ConflictScheduler(CONFLICTS)
        t = 0.0
        for vid, (mi, dt_offset, v0, launchy) in enumerate(requests):
            t += dt_offset
            movement = MOVEMENTS[mi]
            start = t

            if launchy:
                def planner(toa, v0=v0, start=start):
                    return plan_arrival(
                        3.0, v0, start, toa, 3.0, 4.0, 3.0,
                        v_min=0.25, launch_below=1.2,
                    )
            else:
                def planner(toa, v0=v0, start=start):
                    return solve_vt_for_toa(
                        3.0, v0, start, toa, 3.0, 4.0, 3.0, v_min=0.25
                    )

            etoa_plan = vt_plan(3.0, v0, 3.0, start, 3.0, 4.0)
            scheduler.assign(
                vehicle_id=vid,
                movement=movement,
                planner=planner,
                etoa=etoa_plan.arrival_time,
                body_length=0.568,
                buffer=0.078,
            )

        book = scheduler.book
        for i, a in enumerate(book):
            for b in book[i + 1:]:
                for iv in CONFLICTS.intervals(a.movement, b.movement):
                    a_in, a_out = a.interval_occupancy(iv.a_in, iv.a_out)
                    b_in, b_out = b.interval_occupancy(iv.b_in, iv.b_out)
                    assert a_out <= b_in + 1e-6 or b_out <= a_in + 1e-6, (
                        a.vehicle_id, b.vehicle_id, a.movement.key, b.movement.key
                    )

    @given(st.floats(0.0, 3.0), st.floats(0.5, 10.0), st.floats(0.05, 0.6))
    @settings(max_examples=100, deadline=None)
    def test_assignment_never_before_etoa(self, v0, dist, buffer):
        scheduler = ConflictScheduler(CONFLICTS)
        movement = MOVEMENTS[0]
        etoa_plan = vt_plan(dist, v0, 3.0, 0.0, 3.0, 4.0)

        def planner(toa, v0=v0, dist=dist):
            return solve_vt_for_toa(dist, v0, 0.0, toa, 3.0, 4.0, 3.0, v_min=0.25)

        assignment = scheduler.assign(
            vehicle_id=0, movement=movement, planner=planner,
            etoa=etoa_plan.arrival_time, body_length=0.568, buffer=buffer,
        )
        assert assignment is not None
        assert assignment.toa >= etoa_plan.arrival_time - 1e-6

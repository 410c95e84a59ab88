"""The event-driven analytic engine and the VT solver, bit for bit
against the polling references in ``tests/analytic_reference.py``.

Every field of every ``VehicleRecord`` (floats as ``float.hex``), plus
``messages_sent``, ``compute_time`` and ``compute_requests``, must match
on hypothesis-drawn arrival lists, for both policies, under tight and
default retry caps and three retry intervals.  Half the draws put the
arrivals on the 0.25 s lattice, where a follower's retry instant can
equal its leader's booking instant exactly: the follower must then
request at that instant, not one retry later.  Each solver sequence
sends several ToAs through one :class:`VtSolver`, so the plans it keeps
between calls are checked too.  The draws are derandomized, so the
verdict depends on the tree alone.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import ConflictTable, IntersectionGeometry
from repro.kinematics.arrival import VtSolver, vt_plan
from repro.sim.analytic import AnalyticConfig, run_analytic
from repro.sim.flowsweep import flow_arrivals
from repro.traffic.generator import PoissonTraffic
from tests.analytic_reference import (
    run_analytic_polling,
    solve_vt_for_toa_rebuilding,
)
from tests.kinematics_helpers import solve_vt_for_toa

GEOMETRY = IntersectionGeometry()
CONFLICTS = ConflictTable(GEOMETRY)
POLICIES = ("vt-im", "crossroads")
#: v_arrive_floor of the default IMConfig: the VT-IM planner's floor.
FLOOR = AnalyticConfig().im.v_arrive_floor


def bits(value):
    """``value`` with every float spelled ``float.hex``, recursively."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return tuple(bits(v) for v in value)
    return value


def outcome(result):
    """Everything a run reports, in comparable form."""
    return (
        [bits(dataclasses.astuple(r)) for r in result.records],
        result.messages_sent,
        bits(result.compute_time),
        result.compute_requests,
    )


def on_lattice(arrivals, step=0.25):
    """``arrivals`` with each time rounded to a multiple of ``step``."""
    return [dataclasses.replace(a, time=round(a.time / step) * step)
            for a in arrivals]


def leaders_of(arrivals):
    """Each vehicle's same-lane leader in the engine's arrival order."""
    ordered = sorted(arrivals, key=lambda a: a.time)
    last, leaders = {}, []
    for index, arrival in enumerate(ordered):
        leaders.append(last.get(arrival.movement.entry))
        last[arrival.movement.entry] = index
    return leaders


def wake_ties(log, leaders):
    """Followers whose first attempt after deferring came at the very
    instant their leader was booked (the ``>=`` tie)."""
    booked = {index: t for kind, t, index in log if kind == "book"}
    deferred, ties = set(), []
    for kind, t, index in log:
        if kind == "defer":
            deferred.add(index)
        elif index in deferred:
            deferred.discard(index)
            if booked.get(leaders[index]) == t:
                ties.append(index)
    return ties


@st.composite
def arrival_lists(draw):
    flow = draw(st.floats(0.05, 1.25))
    arrivals = PoissonTraffic(flow, seed=draw(st.integers(0, 2 ** 20))).generate(
        draw(st.integers(2, 40))
    )
    return on_lattice(arrivals) if draw(st.booleans()) else arrivals


configs = st.builds(
    AnalyticConfig,
    max_retries=st.sampled_from([1, 2, 3, 4000]),
    retry_interval=st.sampled_from([0.1, 0.25, 0.37]),
)


def both_engines(policy, arrivals, config=None, log=None):
    new = run_analytic(policy, arrivals, config, GEOMETRY, CONFLICTS)
    ref = run_analytic_polling(policy, arrivals, config, GEOMETRY, CONFLICTS,
                               log=log)
    return outcome(new), outcome(ref)


class TestEngineAgainstPolling:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(policy=st.sampled_from(POLICIES), arrivals=arrival_lists(),
           config=configs)
    def test_drawn_cells(self, policy, arrivals, config):
        new, ref = both_engines(policy, arrivals, config)
        assert new == ref

    # A Crossroads vehicle in these cells is booked at its first
    # request, before its follower arrives, so only VT-IM followers
    # defer: the two tests below run VT-IM.

    def test_lattice_cell_hits_the_wake_tie(self):
        # A saturated 40-car draw on the lattice at the default retry
        # interval: a follower requests at the very instant its leader
        # is booked, and followers defer several times in a row (the
        # skipped polls are replayed while they still coast and brake).
        arrivals = on_lattice(PoissonTraffic(1.0, seed=6).generate(40))
        log = []
        new, ref = both_engines("vt-im", arrivals, log=log)
        assert new == ref
        assert wake_ties(log, leaders_of(arrivals))
        defers = [index for kind, _, index in log if kind == "defer"]
        assert max(defers.count(i) for i in set(defers)) > 1

    def test_follower_of_a_leader_that_gave_up_stays_parked(self):
        # Two attempts each: a leader rejected twice gives up, and its
        # follower, deferred at its first attempt, never requests.
        config = AnalyticConfig(max_retries=2)
        arrivals = flow_arrivals(1.0, 40, 7)
        leaders = leaders_of(arrivals)
        log = []
        new, ref = both_engines("vt-im", arrivals, config, log=log)
        assert new == ref
        rejected = [index for kind, _, index in log if kind == "reject"]
        gave_up = {i for i in rejected if rejected.count(i) == 2}
        stranded = {i for kind, _, i in log
                    if kind == "defer" and leaders[i] in gave_up}
        assert stranded
        assert all(row[4] is None  # enter_time
                   for i, row in enumerate(ref[0]) if i in stranded)

    def test_paper_sized_cells(self):
        for policy in POLICIES:
            for flow in (0.1, 1.0):
                new, ref = both_engines(policy, flow_arrivals(flow, 160, 7))
                assert new == ref


def plan_bits(plan):
    if plan is None:
        return None
    profile = plan.profile
    return bits((
        profile.start_time, profile.start_position,
        [(s.duration, s.v0, s.accel) for s in profile.segments],
        plan.arrival_time, plan.arrival_velocity, plan.stop_and_go,
    ))


def floored(plan):
    """The reference VT-IM planner's floor check."""
    if plan is not None and plan.profile.final_velocity < FLOOR - 1e-9:
        return None
    return plan


@st.composite
def solver_cases(draw):
    v_max = draw(st.floats(0.5, 3.5))
    state = dict(
        distance=draw(st.floats(0.0, 60.0)),
        v_init=draw(st.floats(0.0, 1.0)) * v_max,
        start_time=draw(st.floats(0.0, 500.0)),
        a_max=draw(st.floats(0.5, 4.0)),
        d_max=draw(st.floats(0.5, 6.0)),
        v_max=v_max,
        v_min=draw(st.floats(0.05, 0.5)) * v_max,
    )
    fast_t, slow_t = (
        plan.arrival_time if plan is not None else state["start_time"]
        for plan in (
            vt_plan(state["distance"], state["v_init"], vt, state["start_time"],
                    state["a_max"], state["d_max"])
            for vt in (state["v_max"], state["v_min"])
        )
    )
    # Each branch of the solve: too early (None), at the v_max plan,
    # past the v_min plan, and the bisection between them.
    toas = draw(st.lists(st.one_of(
        st.floats(1e-6, 5.0).map(lambda d: fast_t - d),
        st.floats(-1e-9, 1e-9).map(lambda d: fast_t + d),
        st.floats(0.0, 50.0).map(lambda d: slow_t + d),
        st.floats(0.0, 1.0).map(lambda u: fast_t + u * (slow_t - fast_t)),
    ), min_size=1, max_size=8))
    return state, toas


class TestSolverAgainstRebuilding:
    @staticmethod
    def check(state, toas):
        solver = VtSolver(**state)
        planner = VtSolver(**state, v_floor=FLOOR)
        for toa in toas:
            ref = solve_vt_for_toa_rebuilding(
                state["distance"], state["v_init"], state["start_time"], toa,
                state["a_max"], state["d_max"], state["v_max"],
                v_min=state["v_min"],
            )
            assert plan_bits(solver(toa)) == plan_bits(ref)
            assert plan_bits(planner(toa)) == plan_bits(floored(ref))
            one_shot = solve_vt_for_toa(
                state["distance"], state["v_init"], state["start_time"], toa,
                state["a_max"], state["d_max"], state["v_max"],
                v_min=state["v_min"],
            )
            assert plan_bits(one_shot) == plan_bits(ref)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(solver_cases())
    def test_drawn_sequences(self, case):
        self.check(*case)

    def test_every_branch_in_one_solver(self):
        state = dict(distance=20.0, v_init=2.0, start_time=10.0, a_max=3.0,
                     d_max=4.0, v_max=3.0, v_min=0.25)
        solver = VtSolver(**state)
        fast_t = solver.fast.arrival_time
        slow_t = vt_plan(20.0, 2.0, 0.25, 10.0, 3.0, 4.0).arrival_time
        toas = [fast_t - 1.0, fast_t, slow_t + 5.0, fast_t + 2.0,
                0.5 * (fast_t + slow_t), fast_t - 1e-3, slow_t]
        results = [solver(toa) for toa in toas]
        assert results[0] is None and results[5] is None
        assert results[1] is solver.fast
        assert results[2] is results[6]  # the v_min plan, built once
        assert results[2].profile.final_velocity == 0.25
        assert fast_t < results[3].arrival_time <= fast_t + 2.0
        self.check(state, toas)

    def test_floor_refuses_sub_crawl_targets(self):
        state = dict(distance=20.0, v_init=2.0, start_time=0.0, a_max=3.0,
                     d_max=4.0, v_max=3.0, v_min=0.25)
        planner = VtSolver(**state, v_floor=FLOOR)
        slow_t = vt_plan(20.0, 2.0, 0.25, 0.0, 3.0, 4.0).arrival_time
        assert VtSolver(**state)(slow_t).profile.final_velocity < FLOOR
        assert planner(slow_t) is None
        assert planner(planner.fast.arrival_time) is planner.fast

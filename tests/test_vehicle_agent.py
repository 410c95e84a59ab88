"""Unit tests for vehicle-agent behaviours.

Each test builds a minimal world by hand (one vehicle, scripted or
stock IM) so individual clauses — safe stop, retransmission, the stop
latch, replanning, TE timing — can be pinned down.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import make_im
from repro.des import Environment
from repro.geometry import Approach, ConflictTable, IntersectionGeometry, Movement, Turn
from repro.kinematics.profiles import ProfileBuilder
from repro.network import Channel, ConstantDelay
from repro.sensors.plant import PlantConfig
from repro.timesync import Clock
from repro.vehicle import AgentConfig, VehicleInfo, VehicleSpec, make_vehicle
from repro.vehicle.agent import VehicleState


GEOMETRY = IntersectionGeometry()
CONFLICTS = ConflictTable(GEOMETRY)


def build_world(policy="crossroads", with_im=True, spawn_speed=3.0,
                agent_config=None, seed=0, faults=None):
    env = Environment()
    channel = Channel(env, delay_model=ConstantDelay(0.003),
                      rng=np.random.default_rng(seed), faults=faults)
    im = make_im(policy, env, channel, GEOMETRY, conflicts=CONFLICTS) if with_im else None
    if not with_im:
        # Sync-only responder: NTP works, crossing requests vanish.
        from repro.network import SyncRequest, SyncResponse

        im_radio = channel.attach("IM")

        def sync_only(env):
            while True:
                msg = yield im_radio.receive()
                if isinstance(msg, SyncRequest):
                    now = env.now
                    im_radio.send(SyncResponse(
                        sender="IM", receiver=msg.sender,
                        t0=msg.t0, t1=now, t2=now,
                    ))

        env.process(sync_only(env))
    movement = Movement(Approach.SOUTH, Turn.STRAIGHT)
    info = VehicleInfo(vehicle_id=0, spec=VehicleSpec(), movement=movement)
    radio = channel.attach("V0")
    vehicle = make_vehicle(
        policy,
        env,
        info,
        radio,
        Clock(offset=0.1, rng=np.random.default_rng(seed)),
        path_length=GEOMETRY.crossing_distance(movement),
        spawn_speed=spawn_speed,
        plant_config=PlantConfig(accel_noise_std=0.02),
        config=agent_config or AgentConfig(),
        rng=np.random.default_rng(seed),
        plant_headroom=1.15,
    )
    return env, channel, im, vehicle


class TestHappyPath:
    @pytest.mark.parametrize("policy", ["crossroads", "vt-im", "aim"])
    def test_lone_vehicle_completes(self, policy):
        env, channel, im, vehicle = build_world(policy)
        env.run(until=15.0)
        assert vehicle.done
        assert vehicle.record.exit_time is not None
        assert vehicle.record.enter_time < vehicle.record.exit_time

    def test_sync_happens_before_request(self):
        env, channel, im, vehicle = build_world("crossroads")
        env.run(until=15.0)
        assert len(vehicle.ntp.samples) >= 1
        # Clock error corrected to well under the initial 100 ms offset.
        assert abs(vehicle.clock.error(env.now)) < 5e-3

    def test_rtd_recorded(self):
        env, channel, im, vehicle = build_world("crossroads")
        env.run(until=15.0)
        assert vehicle.record.rtds
        assert all(0 < r < 0.25 for r in vehicle.record.rtds)


class TestSafeStopClause:
    @pytest.mark.parametrize("policy", ["crossroads", "vt-im", "aim"])
    def test_vehicle_stops_without_im(self, policy):
        """No IM responses -> the vehicle must stop before the line."""
        env, channel, im, vehicle = build_world(policy, with_im=False)
        env.run(until=10.0)
        assert not vehicle.done
        assert vehicle.speed < 0.05
        assert vehicle.front <= vehicle.approach_length + 1e-6
        assert vehicle._hold

    def test_stop_latch_prevents_creep(self):
        env, channel, im, vehicle = build_world("crossroads", with_im=False)
        env.run(until=10.0)
        parked = vehicle.front
        env.run(until=60.0)
        assert vehicle.front - parked < 0.02

    def test_retransmissions_continue_while_stopped(self):
        env, channel, im, vehicle = build_world("crossroads", with_im=False)
        env.run(until=10.0)
        sent_early = vehicle.record.requests_sent
        env.run(until=20.0)
        assert vehicle.record.requests_sent > sent_early

    @pytest.mark.parametrize("seed", [0, 1, 7, 80399])
    def test_crawl_approach_parks_true_bumper_short_of_line(self, seed):
        """Regression for found-fault-ungranted_entry-aim-s80399: a long
        crawl integrates enough encoder bias that the latch, fired on
        odometry alone, can stop the *measured* bumper at the line with
        the true bumper already past it.  The drift-widened latch must
        park the true bumper strictly short for any noise realisation."""
        env, channel, im, vehicle = build_world(
            "aim", with_im=False, spawn_speed=0.15, seed=seed
        )
        env.run(until=40.0)
        assert vehicle._hold
        assert vehicle.speed < 0.05
        assert vehicle.front < vehicle.approach_length - 0.01
        assert vehicle.record.enter_time is None


class TestBackoff:
    def test_backoff_grows_and_caps(self):
        env, channel, im, vehicle = build_world("crossroads", with_im=False)
        env.run(until=30.0)
        assert vehicle._retry_timeout == pytest.approx(0.8)

    def test_backoff_reset_on_response(self):
        env, channel, im, vehicle = build_world("crossroads")
        env.run(until=15.0)
        assert vehicle._retry_timeout == pytest.approx(
            vehicle.config.retry_timeout
        )


class TestCrossroadsTiming:
    def test_plan_starts_at_te(self):
        """The committed plan must not begin before the commanded TE."""
        env, channel, im, vehicle = build_world("crossroads")
        # Run until the plan is committed.
        while vehicle.plan is None and env.now < 10.0:
            env.run(until=env.now + 0.05)
        assert vehicle.plan is not None
        # TE is TT + WC-RTD; request went out shortly after spawn, so
        # the plan anchor must be at least WC-RTD after spawn.
        assert vehicle.plan.start_time >= vehicle.record.spawn_time + 0.10

    def test_arrives_near_assigned_toa(self):
        env, channel, im, vehicle = build_world("crossroads")
        env.run(until=15.0)
        toa = im.scheduler.comparisons  # scheduler was exercised
        record = vehicle.record
        assert record.enter_time is not None
        # Tracking error stayed within the sensing buffer.
        assert record.max_tracking_error < 0.078


class TestVtimSemantics:
    def test_executes_on_receipt(self):
        """VT vehicles commit a plan anchored at receipt time (no TE)."""
        env, channel, im, vehicle = build_world("vt-im")
        while vehicle.plan is None and env.now < 10.0:
            env.run(until=env.now + 0.02)
        assert vehicle.plan is not None
        # Anchored "now" at commit: start time is essentially current.
        assert vehicle.plan.start_time <= env.now + 1e-9


class TestAimSemantics:
    def test_accept_keeps_cruising(self):
        env, channel, im, vehicle = build_world("aim")
        env.run(until=15.0)
        assert vehicle.done
        assert vehicle.record.rejects_received == 0

    def test_lapsed_window_rejected_at_launch(self):
        """A launch grant whose window has lapsed by the time the wait
        ends (clock drift ran the local clock past ToA + WC-RTD) must
        not be executed: the vehicle returns the slot and renegotiates
        instead of entering the box on an invalidated reservation."""
        config = AgentConfig(aim_propose_min_speed=5.0, max_rtd=0.002)
        env = Environment()
        channel = Channel(env, delay_model=ConstantDelay(0.003),
                          rng=np.random.default_rng(0))
        im = make_im("aim", env, channel, GEOMETRY, conflicts=CONFLICTS)
        movement = Movement(Approach.SOUTH, Turn.STRAIGHT)
        info = VehicleInfo(vehicle_id=0, spec=VehicleSpec(), movement=movement)
        # 5% fast clock: a 0.2 s launch wait overshoots ToA by ~10 ms,
        # past the 2 ms WC-RTD execution tolerance.
        vehicle = make_vehicle(
            "aim", env, info, channel.attach("V0"),
            Clock(offset=0.1, drift=0.05, rng=np.random.default_rng(0)),
            path_length=GEOMETRY.crossing_distance(movement),
            spawn_speed=3.0,
            plant_config=PlantConfig(accel_noise_std=0.02),
            config=config,
            rng=np.random.default_rng(0),
            plant_headroom=1.15,
        )
        env.run(until=20.0)
        assert vehicle.record.stale_rejected >= 1
        # Every grant went stale at wake-up, so the vehicle never
        # committed a plan and never crossed the line ungranted.
        assert vehicle.record.enter_time is None
        assert vehicle.front <= vehicle.approach_length + 1e-6

    def test_propose_floor_forces_stop_then_launch(self):
        """Below the propose floor the vehicle never sends a cruise
        proposal: it safe-stops at the line and crosses via a launch
        reservation instead."""
        config = AgentConfig(aim_propose_min_speed=5.0)  # cruise never viable
        env, channel, im, vehicle = build_world("aim", agent_config=config,
                                                spawn_speed=3.0)
        env.run(until=20.0)
        assert vehicle.done
        assert vehicle.record.came_to_stop
        # The only accepted reservation was a launch (vc == 0 proposal),
        # so the IM saw no constant-speed request from this vehicle.
        assert im.stats.accepts == 1


class TestFollowClamp:
    def test_follower_never_hits_leader(self):
        env = Environment()
        channel = Channel(env, delay_model=ConstantDelay(0.003),
                          rng=np.random.default_rng(1))
        channel.attach("IM")  # silent IM: both will stop at the line
        movement = Movement(Approach.SOUTH, Turn.STRAIGHT)

        def make(vid, predecessor=None, spawn_speed=3.0):
            info = VehicleInfo(vehicle_id=vid, spec=VehicleSpec(), movement=movement)
            return make_vehicle(
                "crossroads", env, info, channel.attach(f"V{vid}"),
                Clock(rng=np.random.default_rng(vid)),
                path_length=GEOMETRY.crossing_distance(movement),
                spawn_speed=spawn_speed,
                predecessor=predecessor,
                rng=np.random.default_rng(vid),
            )

        leader = make(0)
        follower = None

        def spawn_follower(env):
            yield env.timeout(0.6)
            nonlocal follower
            follower = make(1, predecessor=lambda: leader)

        env.process(spawn_follower(env))
        env.run(until=12.0)
        assert follower is not None
        # Both parked; follower strictly behind with a positive gap.
        assert leader.speed < 0.05 and follower.speed < 0.05
        assert leader.rear - follower.front > 0.05


class TestSyncSampleGuard:
    """Delay-spiked NTP exchanges must not be trusted on their own.

    The offset-estimate error of one NTP exchange is half its round
    trip, so a single spiked sync sample skews the vehicle clock by
    tens of ms — past the whole Ch 3.2 sync buffer and, for
    Crossroads, into cross traffic's window.  The vehicle re-exchanges
    until a clean sample arrives (or the attempt budget runs out, then
    the minimum-delay sample wins).
    """

    @staticmethod
    def _spiky_injector(prob=1.0):
        from repro.faults import FaultConfig, FaultInjector

        config = FaultConfig(spike_prob=prob, spike_low=0.1, spike_high=0.1)
        return FaultInjector(config, rng=np.random.default_rng(7))

    def test_clean_channel_syncs_on_first_sample(self):
        env, channel, im, vehicle = build_world("crossroads")
        env.run(until=2.0)
        assert len(vehicle.ntp.samples) == 1
        assert vehicle.ntp.samples[0].delay <= vehicle.config.sync_rtt_limit

    def test_always_spiked_channel_exhausts_budget_then_degrades(self):
        env, channel, im, vehicle = build_world(
            "crossroads", faults=self._spiky_injector(prob=1.0)
        )
        env.run(until=5.0)
        # Every exchange was spiked: the full budget is spent and the
        # best (minimum-delay) sample is used anyway.
        assert len(vehicle.ntp.samples) == vehicle.config.sync_attempts
        assert vehicle.record.retries >= vehicle.config.sync_attempts - 1
        best = vehicle.ntp.best
        assert best.delay == min(s.delay for s in vehicle.ntp.samples)

    def test_occasional_spike_is_resampled_away(self):
        env, channel, im, vehicle = build_world(
            "crossroads", faults=self._spiky_injector(prob=0.5), seed=3
        )
        env.run(until=15.0)
        samples = vehicle.ntp.samples
        assert samples, "vehicle never synced"
        # Whatever mix of spiked/clean exchanges happened, the sample
        # actually used obeys the trust bound unless the budget ran dry.
        if len(samples) < vehicle.config.sync_attempts:
            assert samples[-1].delay <= vehicle.config.sync_rtt_limit
        assert abs(vehicle.clock.error(env.now)) < 0.02


def spy_ticks(vehicle):
    """Record every control tick of ``vehicle`` as it steps the plant.

    Each entry is ``(has_plan, shadowed, at_rest, general)`` as the
    tick stood when it stepped the plant: ``shadowed`` means
    ``_commanded_velocity`` was shadowed on the instance, ``at_rest``
    that the tick started with ``plant.velocity == 0.0``, and
    ``general`` that the tick ran the car-following clamp first, which
    a rest tick skips.
    """
    ticks, clamped = [], []
    clamp, step = vehicle._follow_clamp, vehicle.plant.step

    def follow_clamp(v_cmd):
        clamped.append(True)
        return clamp(v_cmd)

    def plant_step(v_cmd, dt):
        ticks.append((
            vehicle.plan is not None,
            "_commanded_velocity" in vehicle.__dict__,
            vehicle.plant.velocity == 0.0,
            bool(clamped),
        ))
        clamped.clear()
        step(v_cmd, dt)

    vehicle._follow_clamp = follow_clamp
    vehicle.plant.step = plant_step
    return ticks


class TestRestTicks:
    """A tick that starts at rest with a command provably 0.0 steps the
    plant and skips the clamp, replan and milestone clauses; a vehicle
    with a plan, or with its command shadowed, never takes that path."""

    def test_held_vehicle_rests_unless_planned_or_shadowed(self):
        env, channel, im, vehicle = build_world("crossroads", with_im=False)
        ticks = spy_ticks(vehicle)
        env.run(until=10.0)
        assert vehicle._hold and vehicle.speed == 0.0
        rest = [t for t in ticks if not t[3]]
        assert len(rest) > 200
        assert all(t == (False, False, True, False) for t in rest)
        # Every tick still steps the plant: one step per resumption.
        assert len(ticks) == round(10.0 / vehicle.config.dt) + 1

        # A plan to stand still (in the odometry frame the tracker
        # uses), set past ``_set_plan`` so the latch stays on: the
        # command is the plan's, not the latch's.
        vehicle.plan = ProfileBuilder(
            env.now, vehicle.plant.measured_position(), 0.0
        ).hold_for(5.0).build()
        del ticks[:]
        env.run(until=11.0)
        assert len(ticks) == 50
        assert all(t[0] and t[2] and t[3] for t in ticks)
        vehicle.plan = None

        calls = []

        def held_command():
            calls.append(env.now)
            return 0.0

        vehicle._commanded_velocity = held_command
        del ticks[:]
        env.run(until=12.0)
        assert len(calls) == len(ticks) == 50
        assert all(general for *_, general in ticks)

        del vehicle._commanded_velocity
        del ticks[:]
        env.run(until=13.0)
        assert len(ticks) == 50 and not any(general for *_, general in ticks)

    def test_queued_follower_takes_rest_ticks_behind_its_leader(self):
        """Neither latched nor degraded (the IM is silent but the
        silence limit out of reach), a follower parked with no gap to
        its leader is held by the clamp: its approach command is
        provably 0.0 too."""
        env = Environment()
        channel = Channel(env, delay_model=ConstantDelay(0.003),
                          rng=np.random.default_rng(1))
        channel.attach("IM")
        movement = Movement(Approach.SOUTH, Turn.STRAIGHT)

        def make(vid, predecessor=None):
            info = VehicleInfo(vehicle_id=vid, spec=VehicleSpec(), movement=movement)
            return make_vehicle(
                "crossroads", env, info, channel.attach(f"V{vid}"),
                Clock(rng=np.random.default_rng(vid)),
                path_length=GEOMETRY.crossing_distance(movement),
                spawn_speed=3.0, predecessor=predecessor,
                config=AgentConfig(silence_limit=10**6),
                rng=np.random.default_rng(vid),
            )

        leader = make(0)
        spied = []

        def spawn_follower(env):
            yield env.timeout(0.6)
            follower = make(1, predecessor=lambda: leader)
            spied.append((follower, spy_ticks(follower)))

        env.process(spawn_follower(env))
        env.run(until=12.0)
        (follower, ticks), = spied
        assert leader._hold and follower.speed == 0.0
        assert not follower._hold and not follower.monitor.degraded
        assert follower._gap_to(leader) <= 0
        rest = [t for t in ticks if not t[3]]
        assert len(rest) > 200
        assert all(t == (False, False, True, False) for t in rest)

    def test_a_tick_the_stop_clause_would_latch_is_general(self):
        """Parked at the line with the latch released and a leader
        leaving no gap, the command is 0.0 either way, but the approach
        branch would latch: that tick runs the general path, which
        sets the latch the protocol reads."""
        env, channel, im, vehicle = build_world(
            "aim", with_im=False,
            agent_config=AgentConfig(silence_limit=10**6),
        )
        env.run(until=10.0)
        assert vehicle._hold and not vehicle.monitor.degraded
        # Move the parked car (true and measured) to 3 cm short of the
        # line, inside the latch's reach at rest.
        shift = vehicle.measured_distance_to_line() - 0.03
        vehicle.plant.position += shift
        vehicle.plant._measured_position += shift
        assert vehicle._stop_clause_fires(0.0)
        spec = vehicle.info.spec
        leader = SimpleNamespace(
            done=False, info=SimpleNamespace(spec=spec),
            plant=SimpleNamespace(position=vehicle.front + spec.length, velocity=0.0),
        )
        vehicle.predecessor = lambda: leader
        vehicle._hold = False
        assert vehicle._gap_to(leader) <= 0
        ticks = spy_ticks(vehicle)
        env.run(until=10.1)
        assert vehicle._hold
        assert [general for *_, general in ticks] == [True] + [False] * 4

    def test_vehicle_with_a_plan_never_takes_a_rest_tick(self):
        """An AIM vehicle forced to stop at the line launches on a plan
        from rest: its first planned ticks start at rest and still run
        the general path."""
        config = AgentConfig(aim_propose_min_speed=5.0)
        env, channel, im, vehicle = build_world("aim", agent_config=config)
        ticks = spy_ticks(vehicle)
        env.run(until=20.0)
        assert vehicle.done
        planned = [t for t in ticks if t[0]]
        assert any(at_rest for _, _, at_rest, _ in planned)
        assert all(general for *_, general in planned)
        assert not all(general for *_, general in ticks)

    def test_stalled_vehicle_never_takes_a_rest_tick(self):
        from repro.scenarios import BehaviourSpec, ScenarioSpec, SpawnSpec, TrafficSpec
        from repro.scenarios import build_world as build_scenario_world

        spec = ScenarioSpec(
            name="stall",
            traffic=TrafficSpec(kind="explicit", spawns=(SpawnSpec(time=0.0),)),
            behaviours=(BehaviourSpec(kind="stall_in_box", vehicle_id=0,
                                      duration=2.0, value=0.5),),
            max_sim_time=60.0,
        )
        world, _ = build_scenario_world(spec)
        install_behaviours = world.on_spawn
        spied = []

        def on_spawn(vehicle):
            install_behaviours(vehicle)
            spied.append((vehicle, spy_ticks(vehicle)))

        world.on_spawn = on_spawn
        world.run()
        (vehicle, ticks), = spied
        assert vehicle._scenario_stalled and vehicle.done
        stalled = [t for t in ticks if t[1]]
        assert any(at_rest for _, _, at_rest, _ in stalled)
        assert all(general for *_, general in stalled)

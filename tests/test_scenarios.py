"""The declarative scenario DSL (ISSUE 7 satellite c + behaviours).

Three contracts are pinned here:

* **JSON round-trip identity** — every spec shape (Poisson, explicit
  spawn tables, behaviours, fault regimes, clock overrides) survives
  ``from_json(to_json(spec)) == spec`` exactly;
* **null-scenario bit-identity** — a scenario with no behaviours,
  faults or overrides runs bit-identically to the direct
  ``run_scenario(policy, PoissonTraffic(...).generate(n))`` path, with
  the oracle attached, serially and across ``jobs`` worker counts;
* **seed-keyed determinism** — the fuzzer's sampler and the runner are
  pure functions of their seeds.

The behaviour library's per-kind semantics (flags, monkey-patch
restoration, the emergency exemption) get direct unit checks at the
bottom.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.scenarios import (
    BehaviourSpec,
    ScenarioSpec,
    SpawnSpec,
    TrafficSpec,
    build_world,
    random_fault_spec,
    random_spec,
    red_light_runner_spec,
    run_spec,
    run_spec_replicated,
    scale_model_specs,
)
from repro.sim import run_scenario
from repro.traffic import PoissonTraffic

POLICIES = ("vt-im", "crossroads", "aim")


def _null_spec(policy="crossroads", seed=17, cars=6):
    return ScenarioSpec(
        name="null",
        traffic=TrafficSpec(flow=0.4, cars=cars, seed=seed),
        policy=policy,
        seed=seed,
    )


def _spec_zoo():
    """One spec per DSL shape, for round-trip parametrisation."""
    return [
        _null_spec(),
        red_light_runner_spec(),
        random_fault_spec("aim", 202),  # carries a full FaultConfig
        ScenarioSpec(
            name="kitchen-sink",
            traffic=TrafficSpec(
                flow=0.7, cars=5, seed=3, turn_left=0.5, turn_straight=0.25,
                turn_right=0.25, speed_min=1.0, speed_max=2.5,
                min_headway=1.0,
            ),
            policy="vt-im",
            seed=99,
            behaviours=(
                BehaviourSpec(kind="stall_in_box", vehicle_id=1,
                              duration=2.5, value=0.4),
                BehaviourSpec(kind="sensor_dropout", vehicle_id=4,
                              start=1.5, duration=3.0),
            ),
            clock_offset_bound=0.002,
            clock_drift_bound=1e-5,
            max_sim_time=90.0,
            ideal_vehicles=True,
            starvation_bound=45.0,
            expect=("collision",),
            grid_nodes=3,
        ),
    ]


class TestJsonRoundTrip:
    """Satellite (c): ``from_json(to_json(spec)) == spec`` exactly."""

    @pytest.mark.parametrize("spec", _spec_zoo(), ids=lambda s: s.name)
    def test_round_trip_identity(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = red_light_runner_spec(expect=("ungranted_entry",))
        path = tmp_path / "spec.json"
        spec.to_json(str(path))
        assert ScenarioSpec.from_file(str(path)) == spec

    def test_json_form_omits_defaults(self):
        """Null specs serialise minimally — the library stays readable."""
        data = json.loads(_null_spec().to_json())
        assert set(data) == {"name", "policy", "seed", "traffic"}
        assert set(data["traffic"]) == {"kind", "flow", "cars", "seed"}

    def test_scale_model_specs_round_trip_and_match_fig71(self):
        from repro.traffic import scale_model_scenarios

        specs = scale_model_specs()
        scenarios = scale_model_scenarios()
        assert [s.name for s in specs] == [s.name for s in scenarios]
        for spec, scenario in zip(specs, scenarios):
            assert ScenarioSpec.from_json(spec.to_json()) == spec
            assert spec.arrivals() == list(scenario.arrivals)


class TestSpecValidation:
    def test_unknown_behaviour_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            BehaviourSpec(kind="teleport", vehicle_id=0)

    def test_behaviour_target_must_exist(self):
        with pytest.raises(ValueError, match="spawns only 3"):
            ScenarioSpec(
                name="bad",
                traffic=TrafficSpec(cars=3),
                behaviours=(BehaviourSpec(kind="run_red_light",
                                          vehicle_id=3),),
            )

    def test_explicit_traffic_needs_spawns(self):
        with pytest.raises(ValueError, match="at least one spawn"):
            TrafficSpec(kind="explicit")

    def test_unknown_approach_rejected(self):
        with pytest.raises(ValueError):
            SpawnSpec(time=0.0, entry="Q")

    def test_bad_starvation_bound_rejected(self):
        with pytest.raises(ValueError, match="starvation_bound"):
            ScenarioSpec(name="bad", starvation_bound=0.0)


class TestNullBitIdentity:
    """The DSL's load-bearing contract: a null scenario *is* the plain
    ``run_scenario`` call, bit for bit, with the oracle attached."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_null_summary_matches_run_scenario(self, policy):
        spec = _null_spec(policy=policy)
        assert spec.is_null()
        assert spec.world_config() is None
        outcome = run_spec(spec)
        direct = run_scenario(
            policy, PoissonTraffic(0.4, seed=17).generate(6), seed=17
        )
        assert outcome.result.summary() == direct.summary()
        assert outcome.violations == ()

    def test_oracle_and_behaviour_hooks_are_observers(self):
        """Attaching the oracle (or not) never changes the metrics."""
        spec = _null_spec()
        with_oracle = run_spec(spec, oracle=True)
        without = run_spec(spec, oracle=False)
        assert with_oracle.result.summary() == without.result.summary()

    def test_replicated_parallel_matches_serial(self):
        """jobs=1 and jobs=2 produce identical per-seed outcomes."""
        spec = _null_spec()  # traffic seed pinned -> fixed workload
        serial = run_spec_replicated(spec, seeds=(1, 2), jobs=1)
        parallel = run_spec_replicated(spec, seeds=(1, 2), jobs=2)
        assert [r.result.summary() for r in serial] == [
            r.result.summary() for r in parallel
        ]
        assert [r.violations for r in serial] == [
            r.violations for r in parallel
        ]


class TestSeedDeterminism:
    def test_sampler_is_seed_keyed(self):
        draws_a = [random_spec(np.random.default_rng(5), index=i)
                   for i in range(8)]
        draws_b = [random_spec(np.random.default_rng(5), index=i)
                   for i in range(8)]
        assert draws_a == draws_b

    def test_runner_is_deterministic(self):
        spec = red_light_runner_spec()
        first, second = run_spec(spec), run_spec(spec)
        assert first.result.summary() == second.result.summary()
        assert first.violations == second.violations


class TestBehaviourLibrary:
    """Per-kind unit checks against small hand-built scenarios."""

    def _single_vehicle(self, name, *behaviours):
        return ScenarioSpec(
            name=name,
            traffic=TrafficSpec(kind="explicit",
                                spawns=(SpawnSpec(time=0.0),)),
            behaviours=behaviours,
            max_sim_time=60.0,
        )

    def _behaviour_free_v0(self, name):
        """Vehicle 0 of the same single-vehicle spec without behaviours."""
        world, _ = build_world(self._single_vehicle(name))
        world.run()
        return world.vehicles[0]

    def test_red_light_runner_flagged(self):
        world, oracle = build_world(red_light_runner_spec())
        world.run()
        rogue = [v for v in world.vehicles if v.info.vehicle_id == 0][0]
        assert rogue._scenario_rogue
        assert "ungranted_entry" in oracle.kinds
        assert all(v.vehicle_id == 0
                   for v in oracle.by_kind("ungranted_entry"))

    def test_emergency_preempt_is_exempt(self):
        """Same geometry as the red-light runner, but the emergency
        flag suppresses the TE-window violation (pre-emption is
        sanctioned; collisions would still be flagged)."""
        rogue = red_light_runner_spec()
        spec = replace(
            rogue, name="emergency",
            behaviours=(replace(rogue.behaviours[0],
                                kind="emergency_preempt"),),
        )
        world, oracle = build_world(spec)
        world.run()
        v0 = [v for v in world.vehicles if v.info.vehicle_id == 0][0]
        assert v0._scenario_emergency
        assert "ungranted_entry" not in oracle.kinds

    def test_stall_in_box_restores_the_engine(self):
        spec = self._single_vehicle(
            "stall", BehaviourSpec(kind="stall_in_box", vehicle_id=0,
                                   duration=2.0, value=0.5))
        world, _ = build_world(spec)
        result = world.run()
        v0 = world.vehicles[0]
        assert v0._scenario_stalled
        # the zero-velocity shadow was popped after `duration`
        assert "_commanded_velocity" not in v0.__dict__
        assert result.n_finished == 1  # alone, a stall only delays
        # The shadow took effect during its window: the drive loop looks
        # the command up on the instance every tick, so the car stopped
        # in the box and left it later than without the behaviour.
        free = self._behaviour_free_v0("stall")
        assert v0.record.came_to_stop and not free.record.came_to_stop
        assert v0.record.exit_time > free.record.exit_time

    def test_sensor_dropout_restores_odometry(self):
        spec = self._single_vehicle(
            "dropout", BehaviourSpec(kind="sensor_dropout", vehicle_id=0,
                                     start=0.5, duration=1.0))
        world, _ = build_world(spec)
        result = world.run()
        v0 = world.vehicles[0]
        assert v0._scenario_dropout
        assert "measured_position" not in v0.plant.__dict__
        assert result.n_finished == 1
        # The frozen odometry reached plan tracking during its window
        # (looked up on the plant every tick): the tracking error grew
        # far past the behaviour-free run's.
        free = self._behaviour_free_v0("dropout")
        assert v0.record.max_tracking_error > 10 * free.record.max_tracking_error

    def test_empty_behaviour_list_installs_nothing(self):
        world, _ = build_world(_null_spec())
        assert world.on_spawn is None

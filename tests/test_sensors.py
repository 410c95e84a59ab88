"""Tests for sensor models, the plant and buffer sizing (Ch 3)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sensors import (
    BufferBreakdown,
    EncoderModel,
    ErrorExperimentConfig,
    GpsModel,
    ImuModel,
    LongitudinalPlant,
    PlantConfig,
    SafetyBufferCalculator,
    run_error_experiment,
    worst_case_elong,
)
from repro.sensors.models import _BLOCK, NormalStream
from tests.plant_reference import general_step


def numpy_measure(encoder, true_velocity, rng):
    """Reference for :meth:`EncoderModel.measure`: the same body with
    the numpy ``copysign`` the scalar version replaced."""
    slipped = true_velocity * (1.0 + rng.normal(0.0, encoder.slip_noise_std))
    counts = round(abs(slipped) * encoder.counts_per_metre * encoder.sample_interval)
    speed = counts / (encoder.counts_per_metre * encoder.sample_interval)
    return float(np.copysign(speed, slipped) if slipped else 0.0)


def numpy_step(plant, v_cmd, dt):
    """Reference for :meth:`LongitudinalPlant.step`: the same body with
    the numpy clamps the scalar version replaced, stepping ``plant`` in
    place and measuring through :func:`numpy_measure`."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    cfg = plant.config
    v_cmd = float(np.clip(v_cmd, 0.0, cfg.v_max))
    if plant.ideal:
        accel = np.clip((v_cmd - plant.velocity) / dt, -cfg.d_max, cfg.a_max)
    elif v_cmd < 0.01 and plant.velocity < 0.05:
        accel = -plant.velocity / dt
    else:
        accel = np.clip((v_cmd - plant.velocity) / cfg.tau, -cfg.d_max, cfg.a_max)
        accel += plant.rng.normal(0.0, cfg.accel_noise_std)
    new_v = float(np.clip(plant.velocity + accel * dt, 0.0, cfg.v_max))
    plant.position += 0.5 * (plant.velocity + new_v) * dt
    plant.velocity = new_v
    plant.time += dt
    measured = new_v if plant.ideal else numpy_measure(cfg.encoder, new_v, plant.rng)
    plant._measured_position += measured * dt
    if not plant.ideal and new_v > 0.0:
        plant._odometry_error_bound += 0.5 * cfg.encoder.velocity_resolution * dt


def _bits(plant):
    """Every float of the plant's state, as exact hex strings."""
    return tuple(
        float(x).hex()
        for x in (plant.position, plant.velocity, plant.measured_position(),
                  plant.odometry_error_bound, plant.time)
    )


#: A command script through every branch of the plant: launch and
#: commands above v_max (acceleration clamp), commands below 0 and both
#: signed zeros (deceleration clamp, then brake hold at rest), creep
#: commands inside the brake-hold band, and a relaunch.
PLANT_COMMANDS = (
    [5.0] * 80 + [3.0, 3.5, float("inf")] * 5
    + [-1.0] * 10 + [-0.0, 0.0] * 25 + [0.005, -0.0, 0.009] * 5
    + [0.02, 0.3, 0.15] * 10 + [1.0] * 20 + [-0.0] * 40 + [2.0] * 20
)


class TestEncoder:
    def test_quantisation(self):
        enc = EncoderModel(counts_per_metre=100.0, sample_interval=0.1, slip_noise_std=0.0)
        # Resolution = 1/(100*0.1) = 0.1 m/s.
        assert enc.velocity_resolution == pytest.approx(0.1)
        rng = np.random.default_rng(0)
        assert enc.measure(0.24, rng) == pytest.approx(0.2)
        assert enc.measure(0.26, rng) == pytest.approx(0.3)

    def test_zero_velocity(self):
        enc = EncoderModel()
        assert enc.measure(0.0, np.random.default_rng(0)) == 0.0

    def test_slip_noise_statistics(self):
        enc = EncoderModel(slip_noise_std=0.05)
        rng = np.random.default_rng(1)
        samples = [enc.measure(3.0, rng) for _ in range(500)]
        assert np.mean(samples) == pytest.approx(3.0, abs=0.05)
        assert np.std(samples) > 0.05

    def test_scalar_measure_matches_numpy_reference_bitwise(self):
        enc = EncoderModel()
        scalar_rng, reference_rng = np.random.default_rng(4), np.random.default_rng(4)
        for v in (0.0, -0.0, 1e-5, 2e-4, 0.15, 1.0, 3.0, 3.09, -0.3, -2.0):
            for _ in range(50):
                assert enc.measure(v, scalar_rng).hex() == numpy_measure(
                    enc, v, reference_rng).hex()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EncoderModel(counts_per_metre=-1)
        with pytest.raises(ValueError):
            EncoderModel(sample_interval=0)


class TestNormalStream:
    def test_matches_generator_normal_bitwise(self):
        """Equal seeds: the stream returns ``Generator.normal(0.0, s)``
        to the bit over several refills, with the stds a plant draws
        interleaved as a plant draws them (actuation then slip each
        moving tick, an extra slip read at request time now and then)
        and a zero std, which still consumes a draw."""
        plant = PlantConfig()
        stds = []
        for tick in range(2 * _BLOCK):
            stds += [plant.accel_noise_std, plant.encoder.slip_noise_std]
            if tick % 7 == 0:
                stds += [plant.encoder.slip_noise_std, 0.0]
        assert len(stds) > 3 * _BLOCK
        stream = NormalStream(np.random.default_rng(21))
        reference = np.random.default_rng(21)
        for std in stds:
            assert stream.normal(0.0, std).hex() == reference.normal(0.0, std).hex()
        # The stream drew whole blocks and nothing else.
        reference.standard_normal(-len(stds) % _BLOCK)
        assert stream.rng.bit_generator.state == reference.bit_generator.state

    def test_building_a_plant_draws_nothing(self):
        """The first block is drawn at the first draw: a vehicle seeds
        its protocol RNG from the same generator right after building
        its plant."""
        rng = np.random.default_rng(8)
        before = rng.bit_generator.state
        plant = LongitudinalPlant(PlantConfig(), velocity=1.0, rng=rng)
        assert rng.bit_generator.state == before
        assert plant.rng is rng
        plant.step(1.0, 0.02)
        assert rng.bit_generator.state != before

    def test_plants_on_one_stream_draw_in_order(self):
        """Two plants sharing a stream see the generator's normals in
        the order they step, as two plants drawing straight from it
        would."""
        shared = NormalStream(np.random.default_rng(3))
        first, second = (
            LongitudinalPlant(PlantConfig(), velocity=2.0, rng=shared)
            for _ in range(2)
        )
        reference = np.random.default_rng(3)
        ref_first, ref_second = (
            LongitudinalPlant(PlantConfig(), velocity=2.0, rng=reference)
            for _ in range(2)
        )
        for plant, ref in ((first, ref_first), (second, ref_second)):
            for _ in range(_BLOCK):
                plant.step(2.0, 0.02)
                numpy_step(ref, 2.0, 0.02)
                assert _bits(plant) == _bits(ref)


class TestGpsImu:
    def test_gps_unbiased(self):
        gps = GpsModel(sigma_long=0.01, sigma_lat=0.02)
        rng = np.random.default_rng(2)
        fixes = [gps.measure(5.0, -2.0, rng) for _ in range(500)]
        longs, lats = zip(*fixes)
        assert np.mean(longs) == pytest.approx(5.0, abs=0.005)
        assert np.mean(lats) == pytest.approx(-2.0, abs=0.01)

    def test_imu_bias(self):
        imu = ImuModel(bias=0.1, sigma=0.0)
        assert imu.measure(1.0) == pytest.approx(1.1)


class TestPlant:
    def test_tracks_constant_command(self):
        plant = LongitudinalPlant(PlantConfig(accel_noise_std=0.0), velocity=0.0)
        for _ in range(200):
            plant.step(2.0, 0.01)
        assert plant.velocity == pytest.approx(2.0, abs=0.05)

    def test_acceleration_limited(self):
        cfg = PlantConfig(a_max=3.0, accel_noise_std=0.0, tau=1e-3)
        plant = LongitudinalPlant(cfg, velocity=0.0)
        plant.step(3.0, 0.1)
        assert plant.velocity <= 0.3 + 1e-6

    def test_velocity_never_negative(self):
        plant = LongitudinalPlant(PlantConfig(), velocity=0.5, rng=np.random.default_rng(0))
        for _ in range(500):
            plant.step(0.0, 0.02)
            assert plant.velocity >= 0.0

    def test_brake_hold_prevents_creep(self):
        """A commanded stop must not random-walk the vehicle forward."""
        plant = LongitudinalPlant(PlantConfig(), velocity=2.0, rng=np.random.default_rng(7))
        for _ in range(100):
            plant.step(0.0, 0.02)
        parked = plant.position
        for _ in range(50_000):  # 1000 simulated seconds
            plant.step(0.0, 0.02)
        assert plant.position - parked < 0.01

    def test_odometry_error_bound_accrues_while_moving(self):
        """Half an encoder count per moving sample, nothing at rest."""
        cfg = PlantConfig(accel_noise_std=0.0)
        plant = LongitudinalPlant(cfg, velocity=1.0, rng=np.random.default_rng(0))
        assert plant.odometry_error_bound == 0.0
        for _ in range(100):
            plant.step(1.0, 0.02)
        expected = 0.5 * cfg.encoder.velocity_resolution * 2.0
        assert plant.odometry_error_bound == pytest.approx(expected)

    def test_odometry_error_bound_frozen_at_rest(self):
        plant = LongitudinalPlant(
            PlantConfig(), velocity=1.0, rng=np.random.default_rng(3)
        )
        for _ in range(200):  # brake to a dead stop
            plant.step(0.0, 0.02)
        assert plant.velocity == 0.0
        frozen = plant.odometry_error_bound
        for _ in range(500):
            plant.step(0.0, 0.02)
        assert plant.odometry_error_bound == frozen

    def test_odometry_error_bound_ideal_and_reset(self):
        ideal = LongitudinalPlant(PlantConfig(), velocity=1.0, ideal=True)
        for _ in range(100):
            ideal.step(1.0, 0.02)
        assert ideal.odometry_error_bound == 0.0
        noisy = LongitudinalPlant(
            PlantConfig(), velocity=1.0, rng=np.random.default_rng(5)
        )
        noisy.step(1.0, 0.02)
        assert noisy.odometry_error_bound > 0.0
        noisy.reset()
        assert noisy.odometry_error_bound == 0.0

    def test_odometry_bound_covers_actual_drift(self):
        """The bound dominates the true |measured - actual| drift on a
        worst-case crawl (speed parked on a count boundary)."""
        cfg = PlantConfig(accel_noise_std=0.0)
        # 0.15 m/s sits exactly between the 0.14/0.16 count levels.
        plant = LongitudinalPlant(cfg, velocity=0.15, rng=np.random.default_rng(9))
        for _ in range(500):  # 10 s of creep
            plant.step(0.15, 0.02)
        drift = abs(plant.measured_position() - plant.position)
        assert drift <= plant.odometry_error_bound + 1e-9

    def test_ideal_mode_is_exact(self):
        plant = LongitudinalPlant(PlantConfig(), velocity=1.0, ideal=True)
        for _ in range(100):
            plant.step(1.0, 0.01)
        assert plant.position == pytest.approx(1.0, abs=1e-9)
        assert plant.measured_velocity() == plant.velocity

    def test_odometry_tracks_position_roughly(self):
        plant = LongitudinalPlant(PlantConfig(), velocity=2.0, rng=np.random.default_rng(3))
        for _ in range(500):
            plant.step(2.0, 0.02)
        assert plant.measured_position() == pytest.approx(plant.position, abs=0.3)

    @pytest.mark.parametrize("ideal", [False, True])
    @pytest.mark.parametrize("v0", [0.0, 0.04, 2.0])
    def test_scalar_step_matches_numpy_reference_bitwise(self, ideal, v0):
        """Equal seeds, equal commands: position, velocity, odometry and
        its error bound agree to the bit after every step."""
        scalar, reference = (
            LongitudinalPlant(PlantConfig(), velocity=v0,
                              rng=np.random.default_rng(11), ideal=ideal)
            for _ in range(2)
        )
        seen = set()
        for v_cmd in PLANT_COMMANDS:
            scalar.step(v_cmd, 0.02)
            numpy_step(reference, v_cmd, 0.02)
            assert _bits(scalar) == _bits(reference)
            seen.add(scalar.velocity)
        # The script drives the plant into both velocity clamps.
        assert {0.0, scalar.config.v_max} <= seen

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        ideal=st.booleans(),
        velocity=st.sampled_from([0.0, -0.0]),
        v_cmd=st.sampled_from([0.0, -0.0]),
        position=st.floats(-1.0, 30.0) | st.just(-0.0),
        measured=st.floats(-1.0, 30.0) | st.just(-0.0),
        bound=st.floats(0.0, 0.5),
        time=st.floats(0.0, 500.0),
        dt=st.floats(1e-6, 1.0),
        drawn=st.integers(0, 2 * _BLOCK),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(ideal=False, velocity=-0.0, v_cmd=0.0, position=2.9,
             measured=2.91, bound=0.01, time=12.34, dt=0.02, drawn=5, seed=1)
    @example(ideal=False, velocity=0.0, v_cmd=0.0, position=2.9,
             measured=2.91, bound=0.01, time=12.34, dt=0.02, drawn=_BLOCK,
             seed=2)
    @example(ideal=False, velocity=0.0, v_cmd=-0.0, position=-0.0,
             measured=-0.0, bound=0.0, time=0.0, dt=0.02, drawn=0, seed=3)
    def test_rest_branch_matches_general_path_bitwise(
        self, ideal, velocity, v_cmd, position, measured, bound, time, dt,
        drawn, seed,
    ):
        """At rest under a zero command, ``step`` leaves position,
        velocity, clock, odometry, its error bound and the noise stream
        exactly as the general path does, for noisy and ideal plants and
        wherever the stream stands in its prefetched block (``drawn``
        normals already taken; 0 and ``_BLOCK`` leave the block empty)."""
        plants = []
        for _ in range(2):
            plant = LongitudinalPlant(
                PlantConfig(), rng=np.random.default_rng(seed), ideal=ideal
            )
            plant.position, plant.velocity, plant.time = position, velocity, time
            plant._measured_position = measured
            plant._odometry_error_bound = bound
            for _ in range(drawn):
                plant.noise.normal()
            plants.append(plant)
        fast, reference = plants
        fast.step(v_cmd, dt)
        general_step(reference, v_cmd, dt)
        assert _bits(fast) == _bits(reference)
        assert fast.noise.normal().hex() == reference.noise.normal().hex()

    @pytest.mark.parametrize("dt", [0.0, -0.02, float("inf"), float("nan")])
    def test_step_rejects_a_non_positive_or_non_finite_dt(self, dt):
        plant = LongitudinalPlant(PlantConfig())
        for v_cmd in (0.0, 1.0):
            with pytest.raises(ValueError):
                plant.step(v_cmd, dt)

    def test_reset(self):
        plant = LongitudinalPlant(PlantConfig(), velocity=2.0)
        plant.step(2.0, 0.1)
        plant.reset(position=1.0, velocity=0.5)
        assert plant.position == 1.0
        assert plant.velocity == 0.5
        assert plant.time == 0.0


class TestErrorExperiment:
    def test_ideal_profile_position(self):
        cfg = ErrorExperimentConfig(v0=0.1, v1=3.0, hold1=1.0, hold2=1.0, ramp_accel=3.0)
        # 0.1*1 + 0.5*(0.1+3.0)*(2.9/3) + 3.0*1
        expected = 0.1 + 0.5 * 3.1 * (2.9 / 3.0) + 3.0
        assert cfg.ideal_final_position() == pytest.approx(expected)

    def test_command_profile_shape(self):
        cfg = ErrorExperimentConfig(v0=1.0, v1=2.0)
        assert cfg.command_at(0.0) == 1.0
        assert cfg.command_at(cfg.hold1 + cfg.ramp_duration / 2) == pytest.approx(1.5)
        assert cfg.command_at(cfg.total_duration) == 2.0

    def test_experiment_reproducible(self):
        cfg = ErrorExperimentConfig(trials=5)
        a = run_error_experiment(cfg, np.random.default_rng(9))
        b = run_error_experiment(cfg, np.random.default_rng(9))
        assert a.elongs == pytest.approx(b.elongs)

    def test_accelerating_profile_positive_error(self):
        """Tracking lag makes the real car fall short when speeding up."""
        result = run_error_experiment(
            ErrorExperimentConfig(v0=0.1, v1=3.0, trials=10),
            np.random.default_rng(11),
        )
        assert result.mean_elong > 0

    def test_decelerating_profile_negative_error(self):
        result = run_error_experiment(
            ErrorExperimentConfig(v0=3.0, v1=0.1, trials=10),
            np.random.default_rng(11),
        )
        assert result.mean_elong < 0

    def test_worst_case_in_testbed_range(self):
        """The calibrated plant lands near the paper's +-75 mm."""
        bound, up, down = worst_case_elong(trials=20, rng=np.random.default_rng(2017))
        assert 0.03 < bound < 0.15

    @given(st.integers(1, 10))
    @settings(max_examples=20, deadline=None)
    def test_trial_count_respected(self, trials):
        result = run_error_experiment(
            ErrorExperimentConfig(trials=trials), np.random.default_rng(0)
        )
        assert len(result.trials) == trials


class TestBufferCalculator:
    def test_paper_numbers(self):
        calc = SafetyBufferCalculator(
            elong=0.075, sync_error=1e-3, wc_rtd=0.150, v_max=3.0
        )
        b = calc.breakdown()
        assert b.sensing == pytest.approx(0.075)
        assert b.sync == pytest.approx(0.003)   # Ch 3.2
        assert b.base == pytest.approx(0.078)   # Ch 3.2 total
        assert b.rtd == pytest.approx(0.45)     # Ch 4 (0.45 m, typo-fixed)
        assert b.total == pytest.approx(0.528)

    def test_policy_buffers(self):
        calc = SafetyBufferCalculator()
        assert calc.for_policy("vt-im") > calc.for_policy("crossroads")
        assert calc.for_policy("aim") == calc.for_policy("crossroads")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            SafetyBufferCalculator().for_policy("magic")

    def test_breakdown_is_frozen(self):
        b = BufferBreakdown(sensing=0.1, sync=0.0, rtd=0.0)
        with pytest.raises(Exception):
            b.sensing = 0.2

"""Tests for the analytic (ideal-vehicle) fast engine."""

import pytest

from repro.geometry import Approach, Movement, Turn
from repro.sim import AnalyticConfig, run_analytic, run_scenario
from repro.sim.world import WorldConfig
from repro.traffic import Arrival, PoissonTraffic


def single_arrival(speed=3.0):
    return [
        Arrival(time=0.0, movement=Movement(Approach.SOUTH, Turn.STRAIGHT), speed=speed)
    ]


class TestBasics:
    @pytest.mark.parametrize("policy", ["crossroads", "vt-im"])
    def test_lone_vehicle_free_flow(self, policy):
        result = run_analytic(policy, single_arrival())
        assert result.n_finished == 1
        assert result.finished[0].delay < 0.3

    def test_aim_unsupported(self):
        with pytest.raises(ValueError):
            run_analytic("aim", single_arrival())

    def test_all_vehicles_complete_at_saturation(self):
        arrivals = PoissonTraffic(1.0, seed=3).generate(80)
        for policy in ("crossroads", "vt-im"):
            result = run_analytic(policy, arrivals)
            assert result.n_finished == 80

    def test_deterministic(self):
        arrivals = PoissonTraffic(0.5, seed=4).generate(40)
        a = run_analytic("crossroads", arrivals)
        b = run_analytic("crossroads", arrivals)
        assert a.average_delay == b.average_delay
        assert a.messages_sent == b.messages_sent

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnalyticConfig(net_delay=-1.0)
        with pytest.raises(ValueError):
            AnalyticConfig(retry_interval=0.0)
        for max_retries in (0, -1):
            with pytest.raises(ValueError):
                AnalyticConfig(max_retries=max_retries)
        assert AnalyticConfig(max_retries=1).max_retries == 1


class TestPaperShape:
    def test_crossroads_beats_vtim_at_saturation(self):
        arrivals = PoissonTraffic(1.0, seed=5).generate(120)
        cr = run_analytic("crossroads", arrivals)
        vt = run_analytic("vt-im", arrivals)
        assert cr.throughput > 1.5 * vt.throughput

    def test_parity_at_sparse_flow(self):
        arrivals = PoissonTraffic(0.05, seed=5).generate(60)
        cr = run_analytic("crossroads", arrivals)
        vt = run_analytic("vt-im", arrivals)
        assert cr.throughput == pytest.approx(vt.throughput, rel=0.15)

    def test_throughput_monotone_down_with_flow(self):
        values = []
        for flow in (0.05, 0.3, 1.0):
            arrivals = PoissonTraffic(flow, seed=6).generate(80)
            values.append(run_analytic("vt-im", arrivals).throughput)
        assert values[0] > values[1] > values[2]

    def test_schedule_respects_fcfs_same_lane(self):
        arrivals = [
            Arrival(time=0.0, movement=Movement(Approach.SOUTH, Turn.STRAIGHT), speed=3.0),
            Arrival(time=0.6, movement=Movement(Approach.SOUTH, Turn.STRAIGHT), speed=3.0),
        ]
        result = run_analytic("crossroads", arrivals)
        records = sorted(result.finished, key=lambda r: r.vehicle_id)
        assert records[0].exit_time < records[1].exit_time
        assert records[0].enter_time < records[1].enter_time


class TestEngineAgreement:
    """The ideal engine must agree with the micro engine where the
    idealisations don't bite (sparse, unobstructed traffic)."""

    @pytest.mark.parametrize("policy", ["crossroads", "vt-im"])
    def test_sparse_flow_delays_agree(self, policy):
        arrivals = PoissonTraffic(0.1, seed=9).generate(16)
        analytic = run_analytic(policy, arrivals)
        micro = run_scenario(
            policy, arrivals, config=WorldConfig(ideal_vehicles=True), seed=9
        )
        assert micro.n_finished == analytic.n_finished == 16
        assert analytic.average_delay == pytest.approx(
            micro.average_delay, abs=0.6
        )

    def test_saturation_ordering_agrees(self):
        arrivals = PoissonTraffic(0.8, seed=10).generate(32)
        results = {}
        for policy in ("crossroads", "vt-im"):
            results[policy] = (
                run_analytic(policy, arrivals).throughput,
                run_scenario(policy, arrivals, seed=10).throughput,
            )
        # Both engines rank crossroads above vt-im.
        assert results["crossroads"][0] > results["vt-im"][0]
        assert results["crossroads"][1] > results["vt-im"][1]

"""Tests for the streaming metrics layer (repro.obs.metrics / prom).

Covers the instrument primitives, snapshot/merge semantics, the
exporters and — most load-bearing — the two equivalence guarantees:

* metrics-on == metrics-off on ``SimResult.summary()`` (the registry
  never touches an RNG or schedules a DES event), and
* jobs=1 == jobs=2 on merged worker snapshots (the merge operators are
  order-insensitive).
"""

import json
import pickle

import pytest

from repro.faults import FaultConfig
from repro.geometry import Approach, Movement, Turn
from repro.grid import GridPoissonTraffic, GridWorld, corridor_spec, run_grid
from repro.obs import (
    MetricsRegistry,
    RTD_BUCKETS,
    merge_metrics_snapshots,
    metrics_to_csv,
    metrics_to_jsonl,
    parse_prometheus,
    to_prometheus,
)
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.sim import RunTask, World, WorldConfig, run_scenario
from repro.sim.parallel import run_tasks
from repro.traffic import Arrival, PoissonTraffic


def _arrivals(n=8, flow=0.3, seed=5):
    return PoissonTraffic(flow_rate=flow, seed=seed).generate(n)


class TestCounter:
    def test_total_and_series(self):
        reg = MetricsRegistry(bucket_dt=1.0)
        c = reg.counter("events")
        c.inc(2.0, t=0.25)
        c.inc(3.0, t=0.75)
        c.inc(1.0, t=1.5)
        assert c.total == 6.0
        assert c.series == {0: 5.0, 1: 1.0}

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("x")
        c.inc(2.0, t=0.0)
        with pytest.raises(ValueError):
            c.inc(-1.0, t=0.0)
        assert c.total == 2.0  # untouched by the rejected call

    def test_inc_without_timestamp_skips_series(self):
        c = MetricsRegistry().counter("x")
        c.inc(4.0)
        assert c.total == 4.0
        assert c.series == {}

    def test_advance_to_is_idempotent(self):
        c = MetricsRegistry(bucket_dt=1.0).counter("x")
        c.advance_to(3, t=0.5)
        c.advance_to(3, t=0.7)  # a second sampler of the same source
        c.advance_to(5, t=1.2)
        assert c.total == 5.0
        assert c.series == {0: 3.0, 1: 2.0}


class TestGauge:
    def test_value_peak_and_series(self):
        g = MetricsRegistry(bucket_dt=1.0).gauge("depth")
        g.set(3.0, t=0.1)
        g.set(7.0, t=0.9)
        g.set(2.0, t=1.1)
        assert g.value == 2.0
        assert g.peak == 7.0
        # last write per bucket wins
        assert g.series == {0: 7.0, 1: 2.0}


class TestHistogram:
    def test_bounds_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=())
        with pytest.raises(ValueError):
            reg.histogram("h2", buckets=(1.0, float("inf")))
        with pytest.raises(ValueError):
            reg.histogram("h3", buckets=(2.0, 1.0))

    def test_observe_buckets_and_overflow(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 9.0):
            h.observe(v, t=0.0)
        assert h.counts == [1.0, 1.0, 1.0, 1.0]  # last slot = +Inf overflow
        assert h.count == 4.0
        assert h.sum == pytest.approx(14.0)

    def test_quantile_interpolation(self):
        h = MetricsRegistry().histogram("h", buckets=(10.0, 20.0))
        for _ in range(10):
            h.observe(5.0)
        # All mass in (0, 10]; histogram_quantile interpolates linearly.
        assert h.quantile(0.5) == pytest.approx(5.0)
        assert h.quantile(1.0) == pytest.approx(10.0)

    def test_quantile_overflow_clamps_to_top_bound(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0,))
        h.observe(50.0)
        assert h.quantile(0.99) == 1.0

    def test_quantile_empty_and_range(self):
        h = MetricsRegistry().histogram("h")
        assert h.quantile(0.99) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a", {"node": "N0"}) is not reg.counter("a")
        assert len(reg) == 2

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_pickles_and_round_trips(self):
        reg = MetricsRegistry(bucket_dt=0.5)
        reg.counter("c", {"node": "N0"}).inc(3.0, t=0.6)
        reg.gauge("g").set(4.0, t=0.2)
        reg.histogram("h", buckets=RTD_BUCKETS).observe(0.008, t=0.9)
        snap = reg.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap
        rebuilt = MetricsRegistry.from_snapshot(snap)
        assert rebuilt.snapshot() == snap
        assert rebuilt.flat() == reg.flat()

    def test_flat_headlines(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2.0)
        reg.gauge("g", {"node": "N1"}).set(5.0)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        flat = reg.flat()
        assert flat["c"] == 2.0
        assert flat["g{node=N1}"] == 5.0
        assert flat["g{node=N1}.peak"] == 5.0
        assert flat["h.count"] == 1.0
        assert flat["h.p50"] == pytest.approx(0.5)


class TestMerge:
    def _snap(self, counter=0.0, gauge=0.0, obs=()):
        reg = MetricsRegistry()
        if counter:
            reg.counter("c").inc(counter, t=0.0)
        if gauge:
            reg.gauge("g").set(gauge, t=0.0)
        for v in obs:
            reg.histogram("h", buckets=(1.0, 2.0)).observe(v, t=0.0)
        return reg.snapshot()

    def test_counters_add_gauges_max_hists_add(self):
        merged = MetricsRegistry.from_snapshot(self._snap(counter=3.0, gauge=5.0, obs=(0.5,)))
        merged.merge(self._snap(counter=4.0, gauge=2.0, obs=(1.5, 9.0)))
        flat = merged.flat()
        assert flat["c"] == 7.0
        assert flat["g"] == 5.0  # elementwise max, not last-write
        assert flat["g.peak"] == 5.0
        assert flat["h.count"] == 3.0

    def test_merge_order_insensitive(self):
        parts = [self._snap(counter=1.0, gauge=4.0, obs=(0.3,)),
                 self._snap(counter=2.0, gauge=9.0, obs=(1.7,)),
                 self._snap(counter=5.0, gauge=1.0)]
        forward = merge_metrics_snapshots(parts)
        backward = merge_metrics_snapshots(list(reversed(parts)))
        assert forward == backward

    def test_bucket_dt_mismatch_raises(self):
        reg = MetricsRegistry(bucket_dt=1.0)
        other = MetricsRegistry(bucket_dt=0.5)
        other.counter("c").inc(1.0, t=0.0)
        with pytest.raises(ValueError):
            reg.merge(other.snapshot())

    def test_histogram_bounds_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        bad = MetricsRegistry()
        bad.histogram("h", buckets=(1.0, 3.0)).observe(0.5)
        with pytest.raises(ValueError):
            reg.merge(bad.snapshot())

    def test_merge_empty_inputs(self):
        assert merge_metrics_snapshots([]) == {}
        assert merge_metrics_snapshots([{}, {}]) == {}


class TestExporters:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("des.events").inc(120.0, t=0.5)
        reg.gauge("im.backlog", {"node": "world"}).set(3.0, t=1.5)
        h = reg.histogram("vehicle.rtd_seconds", buckets=RTD_BUCKETS)
        h.observe(0.0075, t=2.0)
        h.observe(0.012, t=2.5)
        return reg

    def test_prometheus_round_trip(self):
        snap = self._registry().snapshot()
        text = to_prometheus(snap)
        samples = parse_prometheus(text)
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert by_name["repro_des_events_total"] == [({}, 120.0)]
        assert by_name["repro_im_backlog"] == [({"node": "world"}, 3.0)]
        # Cumulative histogram: the +Inf bucket equals the count.
        inf_bucket = [v for labels, v in by_name["repro_vehicle_rtd_seconds_bucket"]
                      if labels.get("le") == "+Inf"]
        assert inf_bucket == [2.0]
        assert by_name["repro_vehicle_rtd_seconds_count"] == [({}, 2.0)]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not { a sample\n")

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        text = metrics_to_csv(self._registry().snapshot(), str(path))
        assert path.read_text() == text
        lines = text.strip().splitlines()
        assert lines[0] == "metric,type,labels,t_start_s,value"
        assert "des.events,counter,,0,120" in lines

    def test_jsonl_records(self, tmp_path):
        path = tmp_path / "m.jsonl"
        text = metrics_to_jsonl(self._registry().snapshot(), str(path))
        records = [json.loads(line) for line in text.strip().splitlines()]
        assert len(records) == 3
        counter = next(r for r in records if r["name"] == "des.events")
        assert counter["series"] == {"0": 120.0}


class TestInstrumentedRuns:
    def test_world_series_are_populated(self):
        reg = MetricsRegistry()
        result = run_scenario("crossroads", _arrivals(), seed=5, metrics=reg)
        flat = reg.flat()
        assert flat["des.events"] > 0
        assert flat["net.sent"] == result.messages_sent
        # Every completed round trip is observed exactly once.
        expected_rtds = sum(len(r.rtds) for r in result.records)
        assert flat["vehicle.rtd_seconds{node=world}.count"] == expected_rtds
        assert result.metrics == reg.snapshot()

    def test_aim_reports_tile_occupancy(self):
        reg = MetricsRegistry()
        run_scenario("aim", _arrivals(), seed=5, metrics=reg)
        flat = reg.flat()
        assert "tiles.claims{node=world}.peak" in flat
        assert "scheduler.reservations{node=world}.peak" not in flat

    def test_grid_per_node_series(self):
        reg = MetricsRegistry()
        result = run_grid(corridor_spec(3), n_cars=8, flow_rate=0.25,
                          seed=7, metrics=reg)
        flat = reg.flat()
        assert flat["grid.handoffs"] == result.handoffs
        for node in ("N0", "N1", "N2"):
            assert f"node.vehicles_active{{node={node}}}.peak" in flat
        assert result.metrics == reg.snapshot()


def _counter_totals(snapshot):
    """``{(name, reason label): total}`` of every counter, after
    checking that each counter's per-bucket series sums to its total."""
    totals = {}
    for entry in snapshot["series"]:
        if entry["type"] == "counter":
            assert sum(entry["series"].values()) == entry["total"], entry
            totals[(entry["name"], entry["labels"].get("reason"))] = entry["total"]
    return totals


def _assert_net_counters(totals, stats):
    assert totals[("net.sent", None)] == stats.sent
    assert totals[("net.delivered", None)] == stats.delivered
    dropped = {
        reason: total for (name, reason), total in totals.items()
        if name == "net.dropped"
    }
    assert dropped == dict(stats.by_reason)


class TestCountersMatchSources:
    """Counters that live elsewhere are read, not mirrored: at result
    time each equals its source exactly."""

    def test_world(self):
        reg = MetricsRegistry(bucket_dt=0.5)
        world = World(
            "crossroads", _arrivals(10, flow=0.4, seed=3), seed=3,
            config=WorldConfig(message_loss=0.1,
                               faults=FaultConfig.from_spec("dup")),
            metrics=reg,
        )
        result = world.run()
        totals = _counter_totals(result.metrics)
        assert totals[("des.events", None)] == world.env.events_processed
        assert totals[("des.events", None)] == result.perf["count.des_events"]
        stats = world.channel.stats
        assert {"channel", "duplicate"} <= set(stats.by_reason)
        _assert_net_counters(totals, stats)
        assert reg.gauge("net.inflight").value == stats.inflight == 0

    def test_grid(self):
        spec = corridor_spec(3)
        reg = MetricsRegistry()
        arrivals = GridPoissonTraffic(spec, 0.25, seed=7).generate(8)
        world = GridWorld(spec, arrivals, seed=7, metrics=reg)
        result = world.run()
        totals = _counter_totals(result.metrics)
        assert result.handoffs > 0
        assert totals[("grid.handoffs", None)] == result.handoffs
        assert totals[("des.events", None)] == result.perf["count.des_events"]
        _assert_net_counters(totals, world.channel.stats)


class TestBitIdentity:
    """Attaching metrics must not perturb the simulation at all."""

    def test_world_summary_identical_with_metrics(self):
        arrivals = _arrivals(10, flow=0.35, seed=9)
        plain = run_scenario("crossroads", arrivals, seed=9)
        metered = run_scenario("crossroads", arrivals, seed=9,
                               metrics=MetricsRegistry())
        assert plain.summary() == metered.summary()
        assert plain.metrics == {}
        assert metered.metrics != {}

    def test_grid_summary_identical_with_metrics(self):
        spec = corridor_spec(3)
        plain = run_grid(spec, n_cars=10, flow_rate=0.25, seed=4)
        metered = run_grid(spec, n_cars=10, flow_rate=0.25, seed=4,
                           metrics=MetricsRegistry())
        assert plain.summary() == metered.summary()


def _metered_cell(seed):
    """Module-level picklable worker: one metered run's snapshot."""
    reg = MetricsRegistry()
    arrivals = PoissonTraffic(flow_rate=0.3, seed=seed).generate(6)
    run_scenario("crossroads", arrivals, seed=seed, metrics=reg)
    return reg.snapshot()


class TestParallelMergeIdentity:
    def test_jobs1_equals_jobs2(self):
        tasks = [RunTask(_metered_cell, (seed,)) for seed in (1, 2, 3, 4)]
        serial = run_tasks(tasks, jobs=1)
        parallel = run_tasks(tasks, jobs=2)
        assert serial == parallel  # per-cell snapshots are byte-equal
        merged_serial = merge_metrics_snapshots(serial)
        merged_parallel = merge_metrics_snapshots(parallel)
        assert merged_serial == merged_parallel
        total = MetricsRegistry.from_snapshot(merged_serial).flat()
        per_cell = [MetricsRegistry.from_snapshot(s).flat() for s in serial]
        assert total["des.events"] == sum(f["des.events"] for f in per_cell)

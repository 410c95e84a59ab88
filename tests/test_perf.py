"""Tests for the run-level ``perf`` dicts (``SimResult.perf``,
``GridResult.perf``), how they are built and merged, and the
footprint-cache hit rate they report."""

import pytest

from repro.geometry import Approach, Movement, Turn
from repro.geometry.tiles import TileGrid
from repro.sim import run_scenario
from repro.sim.engine import perf_dict
from repro.sim.metrics import merge_perf
from repro.traffic import Arrival


class TestCounters:
    def test_merge(self):
        a = perf_dict({"cells": 10}, sim_run_s=1.0)
        b = perf_dict({"cells": 5, "events": 2}, sim_run_s=0.5)
        merged = merge_perf([a, b])
        assert merged["count.cells"] == 15.0
        assert merged["count.events"] == 2.0
        assert merged["time.sim_run_s"] == pytest.approx(1.5)

    def test_snapshot_prefixes(self):
        perf = perf_dict({"cells": 3, "apples": 1}, sim_run_s=0.25)
        assert perf == {"count.apples": 1.0, "count.cells": 3.0,
                        "time.sim_run_s": 0.25}
        # Counts come first, sorted; the one wall timer closes the dict.
        assert list(perf) == ["count.apples", "count.cells", "time.sim_run_s"]
        assert perf_dict({"cells": 3}) == {"count.cells": 3.0}

    def test_hit_rate(self):
        grid = TileGrid(6.0, 8)
        assert grid.cache_hit_rate == 0.0  # no lookups yet
        for _ in range(4):
            grid.tiles_for_pose(0.5, -1.0, 0.3, 4.0, 2.0)
        assert (grid.cache_hits, grid.cache_misses) == (3, 1)
        assert grid.cache_hit_rate == pytest.approx(0.75)


class TestSnapshotMerge:
    def test_from_snapshot_skips_derived_keys(self):
        snap = {"count.hits": 3.0, "tile_cache_hit_rate": 0.75}
        assert merge_perf([snap]) == {"count.hits": 3.0}

    def test_merge_snapshots(self):
        a = {"count.cells": 10.0, "time.run_s": 1.0}
        b = {"count.cells": 5.0, "count.events": 2.0, "time.run_s": 0.5,
             "tile_cache_hit_rate": 0.9}
        merged = merge_perf([a, b])
        assert merged["count.cells"] == 15.0
        assert merged["count.events"] == 2.0
        assert merged["time.run_s"] == pytest.approx(1.5)
        assert "tile_cache_hit_rate" not in merged  # derived, not additive

    def test_merge_snapshots_empty(self):
        assert merge_perf([]) == {}

    def test_merge_snapshots_disjoint_keys(self):
        """Workers that counted entirely different things merge into
        the union — nothing is dropped and nothing cross-pollinates."""
        a = {"count.cells": 10.0, "time.batch_s": 0.25}
        b = {"count.events": 7.0, "time.run_s": 1.0}
        merged = merge_perf([a, b])
        assert merged == {"count.cells": 10.0, "count.events": 7.0,
                          "time.batch_s": 0.25, "time.run_s": 1.0}
        assert list(merged) == sorted(merged)


class TestSimResultPerf:
    def arrivals(self):
        return [
            Arrival(time=0.0, movement=Movement(Approach.SOUTH, Turn.STRAIGHT),
                    speed=3.0),
            Arrival(time=0.4, movement=Movement(Approach.EAST, Turn.STRAIGHT),
                    speed=3.0),
        ]

    def test_world_populates_perf_snapshot(self):
        result = run_scenario("crossroads", self.arrivals(), seed=3)
        assert result.perf["count.des_events"] > 0
        assert result.perf["time.sim_run_s"] > 0.0
        # The run's one wall timer; every other key is a count.
        assert [k for k in result.perf if not k.startswith("count.")] == [
            "time.sim_run_s"
        ]
        # Perf never leaks into the scientific summary.
        assert not any(k.startswith(("count.", "time.")) for k in result.summary())

    def test_aim_reports_tile_counters(self):
        result = run_scenario("aim", self.arrivals(), seed=3)
        assert result.perf["count.tile_cells_tested"] > 0
        assert result.perf["count.tile_cells_simulated"] > 0
        hits = result.perf["count.tile_cache_hits"]
        misses = result.perf["count.tile_cache_misses"]
        assert misses > 0
        assert 0.0 <= result.perf["tile_cache_hit_rate"] <= 1.0
        assert result.perf["tile_cache_hit_rate"] == pytest.approx(
            hits / (hits + misses)
        )

    def test_non_aim_has_no_tile_counters(self):
        result = run_scenario("vt-im", self.arrivals(), seed=3)
        assert "count.tile_cells_tested" not in result.perf
        assert "tile_cache_hit_rate" not in result.perf

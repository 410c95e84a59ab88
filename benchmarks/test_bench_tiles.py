"""Tile-sweep microbenchmark (opt-in: ``-m perf``).

The AIM trajectory sweep is the canonical hot path of the paper's
overhead story (Ch 7.2: AIM's re-simulation costs 16-20x Crossroads').
This bench replays a Fig 7.2-style AIM request workload — every
movement, mixed constant-speed and launch proposals — through

* the **scalar exact sweep** (the seed hot path, one pose per grid
  lookup, kept as ``tests.tile_reference.simulate_cells_scalar``), and
* the **batched coarse sweep** (quantised pose tables + one vectorised
  rasterisation pass + packed bitmap footprints, the default),

on fresh caches each, and records wall clocks, the measured speedup
and the footprint-cache hit rates in ``BENCH_tiles.json``.

Unlike the parallel bench this is single-process compute, so the
speedup is asserted on every box: the batched sweep must be >= 5x the
scalar one.  Set ``REPRO_BENCH_DIR`` to redirect the JSON artefact.
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import banner
from repro.core import make_im
from repro.des import Environment
from repro.geometry import IntersectionGeometry
from repro.network.channel import Channel
from repro.vehicle import VehicleSpec
from tests.tile_reference import simulate_cells_scalar

pytestmark = pytest.mark.perf

N_REQUESTS = 600
SEED = 7


class _Info:
    def __init__(self, movement, spec, buffer):
        self.movement = movement
        self.spec = spec
        self.buffer = buffer
        self.vehicle_id = 0


def _make_aim():
    env = Environment()
    channel = Channel(env)
    geometry = IntersectionGeometry()
    return make_im("aim", env, channel, geometry), geometry


def _workload(geometry):
    """A Fig 7.2-shaped AIM request mix: all 12 movements, speeds
    across the feasible band, constant-speed and launch proposals."""
    spec = VehicleSpec()
    rng = np.random.default_rng(SEED)
    movements = geometry.movements
    requests = []
    for _ in range(N_REQUESTS):
        movement = movements[int(rng.integers(len(movements)))]
        accelerate = bool(rng.integers(2))
        requests.append(dict(
            info=_Info(movement, spec, 0.075),
            toa=float(rng.uniform(0.2, 18.0)),
            vc=float(rng.uniform(0.15, 1.5)),
            accelerate=accelerate,
            standoff=float(rng.uniform(0.0, 0.3)) if accelerate else 0.0,
        ))
    return requests


def test_tile_sweep_batch_speedup(benchmark):
    im_scalar, geometry = _make_aim()
    requests = _workload(geometry)

    start = time.perf_counter()
    scalar_cells = 0
    for req in requests:
        scalar_cells += len(simulate_cells_scalar(im_scalar, **req))
    scalar_wall = time.perf_counter() - start
    scalar_grid = im_scalar.reservations.grid

    im_batch, _ = _make_aim()
    requests_b = _workload(im_batch.geometry)

    def batch_run():
        total = 0
        for req in requests_b:
            total += len(im_batch.simulate_cells(**req))
        return total

    start = time.perf_counter()
    batch_cells = benchmark.pedantic(batch_run, rounds=1, iterations=1)
    batch_wall = time.perf_counter() - start
    batch_grid = im_batch.reservations.grid

    speedup = scalar_wall / batch_wall if batch_wall > 0 else 0.0
    growth = batch_cells / scalar_cells if scalar_cells else 0.0

    payload = {
        "workload": {"n_requests": N_REQUESTS, "seed": SEED,
                     "movements": len(geometry.movements)},
        "scalar_wall_s": round(scalar_wall, 4),
        "batch_wall_s": round(batch_wall, 4),
        "speedup": round(speedup, 2),
        "scalar_cells": scalar_cells,
        "batch_cells": batch_cells,
        "conservative_cell_growth": round(growth, 3),
        "scalar_cache_hit_rate": round(scalar_grid.cache_hit_rate, 4),
        "batch_cache_hit_rate": round(batch_grid.cache_hit_rate, 4),
        "scalar_cells_tested": scalar_grid.cells_tested,
        "batch_cells_tested": batch_grid.cells_tested,
    }
    out_dir = os.environ.get("REPRO_BENCH_DIR", ".")
    out_path = os.path.join(out_dir, "BENCH_tiles.json")
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    print(banner("AIM tile sweep - batched vs scalar"))
    print(f"{N_REQUESTS} requests | scalar {scalar_wall:.3f} s "
          f"(hit rate {scalar_grid.cache_hit_rate:.1%}) | batch "
          f"{batch_wall:.3f} s (hit rate {batch_grid.cache_hit_rate:.1%})")
    print(f"speedup {speedup:.1f}X | conservative cell growth "
          f"{growth:.2f}X | wrote {out_path}")

    # Single-process compute: assert on every box.
    assert speedup >= 5.0, f"batched sweep only {speedup:.1f}X the scalar one"
    assert batch_grid.cache_hit_rate >= 0.85
    # Conservative but bounded over-approximation.
    assert 1.0 <= growth < 1.6

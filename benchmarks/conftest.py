"""Shared fixtures and caches for the reproduction benchmarks.

Every benchmark regenerates one of the paper's tables/figures and
prints a paper-vs-measured comparison (run pytest with ``-s`` to see
them).  Expensive artefacts (the Fig 7.2 sweep) are computed once per
session and shared.

Scale: by default the benches run a reduced workload (40 cars, 4 flow
rates) so the suite finishes in a few minutes.  Set ``REPRO_FULL=1``
to run the paper's full 160-car, 10-flow grid.

Parallelism: set ``REPRO_JOBS=N`` (or ``auto``) to spread the sweep's
grid cells over a process pool — results are bit-identical to serial.

Benchmarks marked ``@pytest.mark.perf`` (wall-clock speedup studies)
are opt-in: they are skipped unless selected explicitly with
``-m perf`` or forced with ``REPRO_PERF=1``.
"""

import os
import sys
from pathlib import Path

import pytest

from repro.sim.flowsweep import run_flow_sweep
from repro.sim.parallel import resolve_jobs

# The tiles bench times a test reference (``tests/tile_reference.py``):
# make the repository root importable under plain ``pytest`` too, which,
# unlike ``python -m pytest``, does not put the working directory on
# the path.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.append(_ROOT)

FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")

#: Worker processes for the session sweep (``REPRO_JOBS``, default serial).
JOBS = resolve_jobs(None)

#: Reduced grid (default) vs the paper's Fig 7.2 grid.
FLOW_RATES = (
    (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 1.0, 1.25)
    if FULL
    else (0.05, 0.1, 0.3, 0.6, 1.0)
)
N_CARS = 160 if FULL else 40
SCENARIO_REPEATS = 10 if FULL else 2

_cache = {}


def get_flow_sweep():
    """The Fig 7.2 grid, computed once and shared by several benches."""
    key = ("sweep", FLOW_RATES, N_CARS)
    if key not in _cache:
        _cache[key] = run_flow_sweep(
            policies=("aim", "vt-im", "crossroads"),
            flow_rates=FLOW_RATES,
            n_cars=N_CARS,
            seed=7,
            jobs=JOBS,
        )
    return _cache[key]


@pytest.fixture(scope="session")
def flow_sweep():
    return get_flow_sweep()


def pytest_collection_modifyitems(config, items):
    """Keep ``perf``-marked benches opt-in (see module docstring)."""
    if config.getoption("-m"):
        return  # the user picked marks explicitly; respect them
    if os.environ.get("REPRO_PERF", "") not in ("", "0"):
        return
    skip_perf = pytest.mark.skip(
        reason="perf bench is opt-in: run with -m perf or REPRO_PERF=1"
    )
    for item in items:
        if "perf" in item.keywords:
            item.add_marker(skip_perf)


def banner(title: str) -> str:
    bar = "=" * max(len(title), 30)
    return f"\n{bar}\n{title}\n{bar}"

"""Multi-seed replication statistics.

A single stochastic run is a sample, not a result.  This module runs
the same workload across noise seeds and aggregates every metric in
``SimResult.summary()`` with mean / standard deviation / a normal-theory
95% confidence half-width — the minimum statistical hygiene for
comparing policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.sim.metrics import SimResult, merge_perf
from repro.sim.parallel import ParallelRunner, RunTask, resolve_jobs
from repro.sim.world import WorldConfig, run_scenario
from repro.traffic.generator import Arrival

__all__ = ["MetricStats", "Replication", "replicate", "run_replicated"]


@dataclass(frozen=True)
class MetricStats:
    """Aggregate of one metric across seeds."""

    mean: float
    std: float
    ci95: float
    values: "tuple[float, ...]"

    @property
    def n(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.ci95:.2g} (n={self.n})"


class Replication:
    """Results of one workload replicated over seeds."""

    def __init__(self, results: Sequence[SimResult]):
        if not results:
            raise ValueError("need at least one result")
        self.results = list(results)
        self._stats: Dict[str, MetricStats] = {}
        keys = self.results[0].summary().keys()
        for key in keys:
            values = tuple(float(r.summary()[key]) for r in self.results)
            arr = np.array(values)
            std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
            ci95 = 1.96 * std / np.sqrt(len(arr)) if len(arr) > 1 else 0.0
            self._stats[key] = MetricStats(
                mean=float(arr.mean()), std=std, ci95=float(ci95), values=values
            )

    @property
    def policy(self) -> str:
        return self.results[0].policy

    def metric(self, name: str) -> MetricStats:
        """Stats for one summary metric (e.g. ``"throughput"``)."""
        if name == "throughput":
            values = tuple(r.throughput for r in self.results)
            arr = np.array(values)
            std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
            ci95 = 1.96 * std / np.sqrt(len(arr)) if len(arr) > 1 else 0.0
            return MetricStats(float(arr.mean()), std, float(ci95), values)
        if name not in self._stats:
            raise KeyError(f"unknown metric {name!r}; have {sorted(self._stats)}")
        return self._stats[name]

    @property
    def all_safe(self) -> bool:
        """True when no replicate saw a collision."""
        return all(r.collisions == 0 for r in self.results)

    def merged_perf(self) -> Dict[str, float]:
        """Fold every replicate's perf snapshot into one.

        Perf dicts are plain floats, so they travel back from
        :class:`~repro.sim.parallel.ParallelRunner` workers unchanged;
        the ``count.*`` keys (per-machine protocol counters included)
        are deterministic per seed, so the merge is identical under
        ``jobs=1`` and ``jobs=2``.  Wall-clock ``time.*`` keys are
        summed too but naturally vary run to run.
        """
        return merge_perf([r.perf for r in self.results])

    def summary_table(self) -> "tuple[list, list]":
        """(headers, rows) of mean ± CI for every metric."""
        headers = ["metric", "mean", "std", "ci95"]
        rows = [
            [name, stats.mean, stats.std, stats.ci95]
            for name, stats in sorted(self._stats.items())
        ]
        return headers, rows


def replicate(
    run_fn: Callable[[int], SimResult],
    seeds: Sequence[int],
    jobs: Union[int, str, None] = None,
) -> Replication:
    """Run ``run_fn(seed)`` for every seed and aggregate.

    With ``jobs > 1`` the replicates run on a process pool when
    ``run_fn`` is picklable (a module-level function); closures and
    lambdas fall back to a serial loop automatically.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    tasks = [RunTask(run_fn, (seed,), label=f"seed={seed}") for seed in seeds]
    return Replication(ParallelRunner(jobs).map(tasks))


def _replicate_cell(
    policy: str,
    arrivals: "tuple[Arrival, ...]",
    config: Optional[WorldConfig],
    seed: int,
) -> SimResult:
    """Module-level worker for one replicate (picklable for the pool)."""
    return run_scenario(policy, arrivals, config=config, seed=seed)


def run_replicated(
    policy: str,
    arrivals: Sequence[Arrival],
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    config: Optional[WorldConfig] = None,
    jobs: Union[int, str, None] = None,
) -> Replication:
    """Replicate one micro-simulation workload over noise seeds.

    The arrival list (the workload) is fixed; only the world's noise —
    plant, sensors, clocks, network — varies with the seed.  ``jobs``
    (or the ``REPRO_JOBS`` environment variable) spreads the seeds over
    a process pool; each seed fully determines its run, so parallel
    results are bit-identical to serial ones.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    n_jobs = resolve_jobs(jobs)
    if n_jobs > 1:
        tasks = [
            RunTask(
                _replicate_cell,
                (policy, tuple(arrivals), config, seed),
                label=f"{policy} seed={seed}",
            )
            for seed in seeds
        ]
        return Replication(ParallelRunner(n_jobs).map(tasks))
    return replicate(
        lambda seed: run_scenario(policy, arrivals, config=config, seed=seed),
        seeds,
    )

"""Run-level metrics.

The paper's headline quantities:

* **average wait time** (Fig 7.1) — mean per-vehicle delay, where a
  vehicle's delay is its actual spawn-to-box-exit time minus its
  free-flow time;
* **throughput** (Fig 7.2) — "number of managed vehicles divided by
  total wait time";
* **computation overhead / network traffic** (Ch 7.2) — total IM
  compute seconds and total messages, where AIM's trial-and-error
  costs up to 16-20X Crossroads'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.vehicle.record import VehicleRecord

__all__ = ["SimResult", "compare_policies", "merge_perf"]


@dataclass
class SimResult:
    """Everything measured in one simulation run."""

    policy: str
    records: List[VehicleRecord]
    sim_duration: float
    compute_time: float = 0.0
    compute_requests: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    messages_by_type: Dict[str, int] = field(default_factory=dict)
    rejects: int = 0
    collisions: int = 0
    buffer_violations: int = 0
    min_separation: float = float("inf")
    worst_service_time: float = 0.0
    #: Receiver-side suppressed copies (fault-injected duplicates).
    duplicates_dropped: int = 0
    #: Channel loss/drop attribution (``NetworkStats.by_reason``).
    losses_by_reason: Dict[str, int] = field(default_factory=dict)
    #: Injected-fault counters by kind (``FaultInjector.snapshot()``);
    #: empty for fault-free runs.
    fault_injections: Dict[str, int] = field(default_factory=dict)
    #: Reservations withdrawn by the IM's quiet-vehicle watchdog.
    reservation_invalidations: int = 0
    #: Reordered / long-delayed requests dropped by the IM's per-sender
    #: monotonic sequence guard (see ``IMStats.stale_requests_dropped``).
    stale_requests_dropped: int = 0
    #: Flat hot-path counters (``count.<name>``), the ``sim_run`` wall
    #: time (``time.sim_run_s``) and, for AIM, the footprint-cache
    #: ``tile_cache_hit_rate``.  Deliberately *not*
    #: part of :meth:`summary`: wall time varies run to run, while the
    #: summary must stay bit-identical between serial and parallel
    #: executions of the same seeds.
    perf: Dict[str, float] = field(default_factory=dict)
    #: Flat :func:`repro.obs.span_stats` histogram of the run's
    #: exchange spans (p50/p95/max RTD and IM compute delay) — empty
    #: unless the world ran with an event log attached.  Like ``perf``,
    #: deliberately *not* part of :meth:`summary`: attaching tracing
    #: must never change the scientific metrics.
    obs: Dict[str, float] = field(default_factory=dict)
    #: Streaming-metrics snapshot
    #: (:meth:`repro.obs.MetricsRegistry.snapshot`) — empty unless the
    #: world ran with a registry attached.  Picklable and mergeable
    #: across parallel workers via
    #: :func:`repro.obs.merge_metrics_snapshots`.  Like ``perf`` and
    #: ``obs``, deliberately *not* part of :meth:`summary`: attaching
    #: metrics must never change the scientific numbers (the metered ≡
    #: unmetered equivalence test pins this).
    metrics: Dict = field(default_factory=dict)

    # -- vehicle-level aggregates ------------------------------------------
    @property
    def finished(self) -> List[VehicleRecord]:
        """Vehicles that cleared the box."""
        return [r for r in self.records if r.finished]

    @property
    def n_finished(self) -> int:
        return len(self.finished)

    @property
    def delays(self) -> np.ndarray:
        """Per-finished-vehicle wait times."""
        return np.array([r.delay for r in self.finished], dtype=float)

    @property
    def total_delay(self) -> float:
        """Summed excess wait time, seconds."""
        return float(self.delays.sum()) if self.n_finished else 0.0

    @property
    def average_delay(self) -> float:
        """Mean excess wait time (the Fig 7.1 y-axis)."""
        return float(self.delays.mean()) if self.n_finished else 0.0

    @property
    def transit_times(self) -> np.ndarray:
        """Per-finished-vehicle time in the managed area (spawn->exit)."""
        return np.array(
            [r.exit_time - r.spawn_time for r in self.finished], dtype=float
        )

    @property
    def total_transit(self) -> float:
        """Summed time-in-system, seconds."""
        return float(self.transit_times.sum()) if self.n_finished else 0.0

    @property
    def throughput(self) -> float:
        """Vehicles per second of total wait (the Fig 7.2 y-axis).

        "Wait time" is each vehicle's total time in the managed area
        (transmission line to box exit): at low flow every policy sits
        at 1/free-flow-transit, and the curves diverge downward as
        congestion stretches transits — the Fig 7.2 shape.
        """
        if not self.n_finished or self.total_transit <= 0:
            return 0.0
        return self.n_finished / self.total_transit

    @property
    def worst_rtd(self) -> float:
        """Largest request->response round trip any vehicle saw."""
        rtds = [r.worst_rtd for r in self.records if r.rtds]
        return max(rtds) if rtds else 0.0

    @property
    def requests_total(self) -> int:
        return sum(r.requests_sent for r in self.records)

    @property
    def stops(self) -> int:
        """Vehicles that came to a complete stop."""
        return sum(1 for r in self.records if r.came_to_stop)

    @property
    def safe(self) -> bool:
        """True when no ground-truth body overlap ever occurred."""
        return self.collisions == 0

    # -- robustness aggregates ---------------------------------------------
    @property
    def stale_rejected(self) -> int:
        """Commands refused because their deadline had already passed."""
        return sum(r.stale_rejected for r in self.records)

    @property
    def deadline_misses(self) -> int:
        """Responses whose round trip exceeded the assumed WC-RTD."""
        return sum(r.deadline_misses for r in self.records)

    @property
    def retries(self) -> int:
        """Timeout-triggered retransmissions across all vehicles."""
        return sum(r.retries for r in self.records)

    @property
    def degraded_time(self) -> float:
        """Total simulated seconds vehicles spent in safe-stop hold."""
        return float(sum(r.degraded_time for r in self.records))

    @property
    def degraded_entries(self) -> int:
        """Times any vehicle entered degraded mode."""
        return sum(r.degraded_entries for r in self.records)

    @property
    def min_command_margin(self) -> float:
        """Smallest deadline margin of any executed command (inf when
        no command carried a deadline).  The stale-rejection clauses
        guarantee this is never negative — the property suite pins it."""
        margins = [r.min_command_margin for r in self.records]
        return min(margins) if margins else float("inf")

    def summary(self) -> Dict[str, float]:
        """Flat dict of the headline numbers (for tables/benches)."""
        return {
            "policy_vehicles": float(self.n_finished),
            "avg_delay_s": self.average_delay,
            "total_delay_s": self.total_delay,
            "throughput": self.throughput,
            "compute_s": self.compute_time,
            "messages": float(self.messages_sent),
            "requests": float(self.requests_total),
            "rejects": float(self.rejects),
            "stops": float(self.stops),
            "collisions": float(self.collisions),
            "worst_rtd_s": self.worst_rtd,
            # Robustness accounting (all zero on a fault-free run, and
            # deterministic per seed, so parallel bit-identity holds).
            "stale_rejected": float(self.stale_rejected),
            "deadline_misses": float(self.deadline_misses),
            "retries": float(self.retries),
            "duplicates_dropped": float(self.duplicates_dropped),
            "degraded_s": self.degraded_time,
            "invalidations": float(self.reservation_invalidations),
            "stale_requests_dropped": float(self.stale_requests_dropped),
        }


def merge_perf(perfs: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Fold several runs' ``perf`` dicts (parallel workers, sweep
    cells) into one, keys sorted.  Only the additive ``count.*`` and
    ``time.*_s`` keys participate; derived ratios such as
    ``tile_cache_hit_rate`` are dropped (recompute them from the
    merged counts)."""
    merged: Dict[str, float] = {}
    for perf in perfs:
        for key, value in perf.items():
            if key.startswith("count.") or (
                key.startswith("time.") and key.endswith("_s")
            ):
                merged[key] = merged.get(key, 0.0) + float(value)
    return {key: merged[key] for key in sorted(merged)}


def compare_policies(
    results: Sequence[SimResult], baseline: str, metric: str = "throughput"
) -> Dict[str, float]:
    """Ratio of each policy's metric to the baseline policy's.

    ``compare_policies(results, "vt-im")["crossroads"]`` is the
    paper's "Crossroads has 1.62X better throughput than VT-IM" style
    number.
    """
    by_policy: Dict[str, float] = {}
    for result in results:
        by_policy[result.policy] = float(getattr(result, metric))
    if baseline not in by_policy:
        raise ValueError(f"baseline {baseline!r} not among results")
    base = by_policy[baseline]
    if base == 0:
        raise ValueError("baseline metric is zero")
    return {policy: value / base for policy, value in by_policy.items()}

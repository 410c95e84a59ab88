"""Streaming metrics: sim-time-bucketed counters, gauges, histograms.

Where :mod:`repro.obs.events` records *what happened* (a bounded ring
of discrete events, reconstructed into spans after the run), this
module records *how much / how many over time* — the live health
signals the ROADMAP's IM-as-a-service mode needs online: kernel event
rate, per-approach queue depth, IM request backlog, reservation-table
and tile-bitmap occupancy, degraded-vehicle population, transport
in-flight and drop rates, and an online round-trip-delay distribution.

Design rules (all load-bearing):

* **Sim-time buckets.**  Every sample carries the simulated timestamp
  of the emitting site; series aggregate per fixed-width bucket
  (``bucket_dt`` simulated seconds).  Nothing here ever reads a wall
  clock, so two runs of one seed produce byte-equal snapshots.
* **Online quantiles.**  :class:`Histogram` keeps only fixed-bound
  bucket counts (Prometheus ``le`` semantics) and computes p50/p95/p99
  by linear interpolation inside the target bucket — no samples are
  retained, so memory stays O(bounds) for arbitrarily long runs.
* **Picklable, mergeable snapshots.**  :meth:`MetricsRegistry.snapshot`
  is plain dicts/lists/floats, rebuilt by
  :meth:`MetricsRegistry.from_snapshot` and folded by
  :func:`merge_metrics_snapshots`, so snapshots ride back from
  :mod:`repro.sim.parallel` workers and merge deterministically
  (counters and histograms add; gauges take the elementwise maximum,
  i.e. peak-across-runs, which is order-insensitive).
* **Each fact counted once.**  A count that already lives somewhere
  (the kernel's ``events_processed``, a transport's ``NetworkStats``)
  is not mirrored by a second increment at its emitting site: the
  periodic samplers :meth:`Counter.advance_to` the source's running
  total, so counter totals are exact and their per-bucket series have
  the sampler's resolution.
* **Off means None.**  ``metrics=None`` is the only "metrics off":
  instrumented sites keep one ``is None`` check.  Attaching a registry
  never touches an RNG and never schedules a DES event, so a metered
  run's ``SimResult.summary()`` is bit-identical to an unmetered one —
  the equivalence test pins this like the traced ≡ untraced one.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RTD_BUCKETS",
    "merge_metrics_snapshots",
]

#: Default histogram bounds for protocol round-trip delays, seconds.
#: Centred on the testbed's 7.5 ms WC-RTD with headroom for fault
#: regimes (delay spikes push round trips past 100 ms).
RTD_BUCKETS: Tuple[float, ...] = (
    0.002, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.03,
    0.05, 0.075, 0.1, 0.15, 0.25, 0.5, 1.0,
)

#: Default bounds for generic value histograms.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Optional[Dict[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared identity + per-time-bucket series bookkeeping."""

    kind = "abstract"
    __slots__ = ("name", "label_items", "_bucket_dt", "series")

    def __init__(self, name: str, label_items: LabelItems, bucket_dt: float):
        self.name = name
        self.label_items = label_items
        self._bucket_dt = bucket_dt
        #: bucket index (``floor(t / bucket_dt)``) -> aggregated value.
        self.series: Dict[int, float] = {}

    @property
    def labels(self) -> Dict[str, str]:
        return dict(self.label_items)

    def _bucket(self, t: float) -> int:
        return int(t // self._bucket_dt)

    def key(self) -> Tuple[str, LabelItems]:
        return (self.name, self.label_items)

    def __repr__(self) -> str:
        tags = ", ".join(f"{k}={v}" for k, v in self.label_items)
        suffix = f"{{{tags}}}" if tags else ""
        return f"{type(self).__name__}({self.name}{suffix})"


class Counter(_Instrument):
    """Monotonic total plus a per-bucket increment series."""

    kind = "counter"
    __slots__ = ("total",)

    def __init__(self, name: str, label_items: LabelItems, bucket_dt: float):
        super().__init__(name, label_items, bucket_dt)
        self.total = 0.0

    def inc(self, n: float = 1.0, t: Optional[float] = None) -> None:
        """Add ``n`` (must be non-negative — counters are monotonic)."""
        if n < 0:
            raise ValueError(f"counter increments must be non-negative, got {n!r}")
        self.total += n
        if t is not None:
            bucket = self._bucket(t)
            self.series[bucket] = self.series.get(bucket, 0.0) + n

    def advance_to(self, total: float, t: float) -> None:
        """Catch up with a running ``total`` kept by the count's source.

        The growth since the last call lands in ``t``'s bucket.
        Idempotent, so several samplers reading one shared source (the
        nodes of a grid on one transport) still count it once.
        """
        if total > self.total:
            self.inc(total - self.total, t)


class Gauge(_Instrument):
    """Last-written value plus peak and a last-per-bucket series."""

    kind = "gauge"
    __slots__ = ("value", "peak")

    def __init__(self, name: str, label_items: LabelItems, bucket_dt: float):
        super().__init__(name, label_items, bucket_dt)
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float, t: Optional[float] = None) -> None:
        value = float(value)
        self.value = value
        if value > self.peak:
            self.peak = value
        if t is not None:
            self.series[self._bucket(t)] = value


class Histogram(_Instrument):
    """Fixed-bound distribution with online quantiles.

    ``bounds`` are the finite upper bucket edges (Prometheus ``le``
    semantics: ``counts[i]`` holds observations ``<= bounds[i]`` and
    above the previous edge; the final slot is the +Inf overflow).
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        label_items: LabelItems,
        bucket_dt: float,
        bounds: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, label_items, bucket_dt)
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("histogram bounds must be finite (the +Inf "
                             "overflow bucket is implicit)")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = bounds
        self.counts = [0.0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0.0

    def observe(self, value: float, t: Optional[float] = None) -> None:
        value = float(value)
        self.sum += value
        self.count += 1.0
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1.0
        if t is not None:
            bucket = self._bucket(t)
            self.series[bucket] = self.series.get(bucket, 0.0) + 1.0

    def quantile(self, q: float) -> float:
        """Online quantile by linear interpolation inside the target
        bucket (``histogram_quantile`` semantics; the overflow bucket
        is clamped to the highest finite bound).  0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count <= 0:
            return 0.0
        target = q * self.count
        cumulative = 0.0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count <= 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
                if upper <= lower:
                    return upper
                fraction = (target - cumulative) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += bucket_count
        return self.bounds[-1]


class MetricsRegistry:
    """Get-or-create home for every instrument of one run.

    One registry serves a whole world (or grid — per-node series are
    distinguished by a ``node`` label).  Instruments are identified by
    ``(name, sorted label items)``; asking twice returns the same
    object, so emitting sites may cache them or not, identically.
    """

    def __init__(self, bucket_dt: float = 1.0):
        if bucket_dt <= 0:
            raise ValueError("bucket_dt must be positive")
        self.bucket_dt = float(bucket_dt)
        self._instruments: Dict[Tuple[str, LabelItems], _Instrument] = {}

    # -- get-or-create -----------------------------------------------------
    def _get(self, cls, name: str, labels, **kwargs) -> _Instrument:
        key = (name, _label_items(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1], self.bucket_dt, **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r}{dict(key[1])!r} already registered as "
                f"{instrument.kind}, not {cls.kind}"
            )
        return instrument

    def counter(self, name: str, labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, labels, bounds=buckets)

    def instruments(self) -> List[_Instrument]:
        """Every registered instrument, sorted by (name, labels)."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def __len__(self) -> int:
        return len(self._instruments)

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> Dict:
        """Plain-data picklable form (the ``SimResult.metrics`` payload)."""
        series = []
        for instrument in self.instruments():
            entry: Dict = {
                "name": instrument.name,
                "type": instrument.kind,
                "labels": instrument.labels,
                "series": {int(k): float(v)
                           for k, v in sorted(instrument.series.items())},
            }
            if isinstance(instrument, Counter):
                entry["total"] = instrument.total
            elif isinstance(instrument, Gauge):
                entry["value"] = instrument.value
                entry["peak"] = instrument.peak
            else:
                entry["bounds"] = list(instrument.bounds)
                entry["counts"] = list(instrument.counts)
                entry["sum"] = instrument.sum
                entry["count"] = instrument.count
            series.append(entry)
        return {"bucket_dt": self.bucket_dt, "series": series}

    @classmethod
    def from_snapshot(cls, snapshot: Dict) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict."""
        registry = cls(bucket_dt=snapshot.get("bucket_dt", 1.0))
        registry.merge(snapshot)
        return registry

    def merge(self, snapshot: Dict) -> "MetricsRegistry":
        """Fold a snapshot into this registry (returns self).

        Counters and histograms add; gauges keep the elementwise
        maximum (value, peak and per-bucket series) so the merge is
        associative, commutative and independent of worker scheduling
        — the jobs=1 ≡ jobs=2 identity test relies on that.
        """
        if snapshot.get("series") and snapshot.get("bucket_dt") != self.bucket_dt:
            raise ValueError(
                f"cannot merge snapshots with bucket_dt "
                f"{snapshot.get('bucket_dt')!r} into a registry at "
                f"{self.bucket_dt!r}"
            )
        for entry in snapshot.get("series", ()):
            name, labels, kind = entry["name"], entry["labels"], entry["type"]
            series = {int(k): float(v) for k, v in entry["series"].items()}
            if kind == "counter":
                counter = self.counter(name, labels)
                counter.total += entry["total"]
                for bucket, value in series.items():
                    counter.series[bucket] = counter.series.get(bucket, 0.0) + value
            elif kind == "gauge":
                gauge = self.gauge(name, labels)
                gauge.value = max(gauge.value, entry["value"])
                gauge.peak = max(gauge.peak, entry["peak"])
                for bucket, value in series.items():
                    gauge.series[bucket] = max(gauge.series.get(bucket, value), value)
            elif kind == "histogram":
                histogram = self.histogram(name, labels, buckets=entry["bounds"])
                if list(histogram.bounds) != [float(b) for b in entry["bounds"]]:
                    raise ValueError(
                        f"histogram {name!r}: cannot merge mismatched bounds "
                        f"{entry['bounds']!r} into {list(histogram.bounds)!r}"
                    )
                for i, count in enumerate(entry["counts"]):
                    histogram.counts[i] += count
                histogram.sum += entry["sum"]
                histogram.count += entry["count"]
                for bucket, value in series.items():
                    histogram.series[bucket] = (
                        histogram.series.get(bucket, 0.0) + value
                    )
            else:
                raise ValueError(f"unknown metric type {kind!r}")
        return self

    # -- summaries ---------------------------------------------------------
    def flat(self) -> Dict[str, float]:
        """Flat headline dict (CLI tables, quick asserts): counters
        report their total, gauges last value + peak, histograms
        count/sum and online p50/p95/p99."""
        out: Dict[str, float] = {}
        for instrument in self.instruments():
            tags = ",".join(f"{k}={v}" for k, v in instrument.label_items)
            base = f"{instrument.name}{{{tags}}}" if tags else instrument.name
            if isinstance(instrument, Counter):
                out[base] = instrument.total
            elif isinstance(instrument, Gauge):
                out[base] = instrument.value
                out[f"{base}.peak"] = instrument.peak
            else:
                out[f"{base}.count"] = instrument.count
                out[f"{base}.sum"] = instrument.sum
                out[f"{base}.p50"] = instrument.quantile(0.50)
                out[f"{base}.p95"] = instrument.quantile(0.95)
                out[f"{base}.p99"] = instrument.quantile(0.99)
        return out


def merge_metrics_snapshots(snapshots: Iterable[Dict]) -> Dict:
    """Fold many worker snapshots into one (deterministic: the merge
    operators are order-insensitive, so jobs=1 and jobs=N replications
    of the same seeds agree exactly).  Empty input -> empty snapshot."""
    merged: Optional[MetricsRegistry] = None
    for snapshot in snapshots:
        if not snapshot or not snapshot.get("series"):
            continue
        if merged is None:
            merged = MetricsRegistry(bucket_dt=snapshot.get("bucket_dt", 1.0))
        merged.merge(snapshot)
    return merged.snapshot() if merged is not None else {}


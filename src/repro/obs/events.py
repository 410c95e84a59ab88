"""The event bus: sim-time-stamped typed records with a bounded sink.

Crossroads' argument is about *where time goes* — WC-RTD = network +
IM-computation delay is exactly the quantity the TE-stamped protocol
removes from the safety buffer — so the observability layer records
*per-exchange* timelines, not just aggregates.  An :class:`EventLog`
is a ring buffer of :class:`ObsEvent` records emitted by every runtime
layer (DES kernel, channel, protocol machines, vehicle chassis, IM and
its scheduler).  Three design rules keep it safe to thread everywhere:

* **zero-cost when off** — every instrumented object holds an ``obs``
  attribute defaulting to the module-level :data:`NULL_LOG`; emit
  sites guard with ``if self.obs.enabled:``, a single attribute test,
  and the null sink's :meth:`~NullLog.emit` is a no-op.  Tracing never
  touches an RNG and never schedules a DES event, so a traced run's
  :meth:`~repro.sim.metrics.SimResult.summary` is bit-identical to an
  untraced one (CI pins this);
* **bounded memory** — the log is a ring buffer (``capacity`` newest
  events are retained; :attr:`EventLog.dropped` counts evictions), so
  a 200-vehicle fault storm cannot OOM the run;
* **correlation** — request/response exchanges carry a correlation id
  (the request's message ``seq``, minted by
  :class:`~repro.protocol.loop.RequestLoop` and propagated through
  message headers), so :mod:`repro.obs.spans` can rebuild the full
  TT -> IM-compute -> reply -> TE timeline of every transaction.

This module sits at layer level 0 (with :mod:`repro.des`) and imports
nothing from the rest of the package.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["EventLog", "NULL_LOG", "NullLog", "ObsEvent"]


@dataclass(frozen=True)
class ObsEvent:
    """One sim-time-stamped record on the bus.

    Attributes
    ----------
    t:
        Simulation time of the event, seconds.
    kind:
        Dotted event type, e.g. ``"net.send"``, ``"span.request"``,
        ``"im.compute.end"`` (the full vocabulary is documented in
        README "Observability").
    actor:
        The emitting endpoint: a radio address (``"V3"``, ``"IM"``)
        or a subsystem name (``"kernel"``, ``"sched"``).
    corr:
        Correlation id tying the event to one request/response
        exchange (the request message's ``seq``); 0 when the event
        belongs to no exchange.
    data:
        Free-form payload (message type, drop reason, TE, ...).
    """

    t: float
    kind: str
    actor: str
    corr: int = 0
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready form (used by the JSONL exporter)."""
        out: Dict[str, Any] = {"t": self.t, "kind": self.kind, "actor": self.actor}
        if self.corr:
            out["corr"] = self.corr
        if self.data:
            out.update(self.data)
        return out


class NullLog:
    """The zero-cost sink: swallows everything, reports disabled.

    Instrumented classes default their ``obs`` attribute to the shared
    :data:`NULL_LOG` instance so emit sites can always write
    ``if self.obs.enabled: self.obs.emit(...)`` without a None check.
    """

    #: Emit sites short-circuit on this.
    enabled = False
    #: High-volume DES-kernel events are additionally gated on this.
    kernel = False
    #: Ring-buffer eviction counter (always 0 here).
    dropped = 0

    def emit(self, kind: str, t: float, actor: str, corr: int = 0, **data) -> None:
        """Discard the event."""

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(())

    def __repr__(self) -> str:
        return "NullLog()"


#: Shared null sink (stateless, safe to share between worlds).
NULL_LOG = NullLog()


class EventLog:
    """Bounded, sim-time-ordered event sink.

    Parameters
    ----------
    capacity:
        Maximum retained events (ring buffer: the *newest* events are
        kept and :attr:`dropped` counts evictions).  ``None`` retains
        everything — fine for tests, risky for 200-vehicle storms.
    kernel:
        Also record the high-volume per-DES-event ``des.step`` records
        (off by default: one per processed kernel event).
    """

    enabled = True

    def __init__(self, capacity: Optional[int] = 500_000, kernel: bool = False):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None)")
        self.capacity = capacity
        self.kernel = kernel
        self._events: "deque[ObsEvent]" = deque(maxlen=capacity)
        #: Total events ever emitted (including evicted ones).
        self.emitted = 0

    # -- emission -----------------------------------------------------------
    def emit(self, kind: str, t: float, actor: str, corr: int = 0, **data) -> ObsEvent:
        """Append one typed record (returns it, mainly for tests)."""
        event = ObsEvent(t=float(t), kind=kind, actor=actor, corr=corr, data=data)
        self._events.append(event)
        self.emitted += 1
        return event

    # -- queries ------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer."""
        return self.emitted - len(self._events)

    @property
    def events(self) -> List[ObsEvent]:
        """Retained events, oldest first (a copy)."""
        return list(self._events)

    def by_kind(self, *kinds: str) -> List[ObsEvent]:
        """Retained events whose ``kind`` is one of ``kinds``."""
        return [e for e in self._events if e.kind in kinds]

    def by_corr(self, corr: int) -> List[ObsEvent]:
        """Retained events correlated to one exchange."""
        return [e for e in self._events if e.corr == corr]

    def counts(self) -> Counter:
        """``Counter`` of retained event kinds."""
        return Counter(e.kind for e in self._events)

    def clear(self) -> None:
        """Drop every retained event (``emitted`` keeps counting)."""
        self._events.clear()
        self.emitted = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self._events)

    def __repr__(self) -> str:
        return (
            f"EventLog({len(self._events)} events, dropped={self.dropped}, "
            f"capacity={self.capacity})"
        )

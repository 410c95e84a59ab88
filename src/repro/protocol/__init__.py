"""The shared protocol layer: small, composable state machines.

Crossroads' core claim is an *interface* property — stamping every
command with ``TE = TT + WC-RTD`` removes the round-trip delay from the
safety buffer — and the machinery that realises it (time sync,
retransmission, command validation, degradation) is policy-independent.
This package makes that machinery an explicit layer between the network
substrate and the policy code:

* :class:`TimeSyncSession` — the vehicle side of the NTP exchange with
  the round-trip trust bound and the sample re-exchange budget, plus
  :class:`TimeSyncResponder`, the IM's trivial four-timestamp answerer;
* :class:`RequestLoop` — request/response matching on one radio:
  typed ``await_response`` with ``in_reply_to`` correlation, and the
  jittered retransmit ``exchange``;
* :class:`CommandValidator` — the staleness clauses (measured RTD vs
  WC-RTD, TE/ToA deadline margins) and ``min_command_margin``
  accounting;
* :class:`DegradationMonitor` — consecutive-silence tracking, the
  multiplicative retransmit backoff with jitter, and the safe-stop
  degraded mode;
* :class:`SequenceGuard` — the IM-side per-sender monotonic request
  guard and stale-cancel filter.

Every machine takes its dependencies (the DES environment, a radio, an
NTP client, an RNG) injected, so each is unit-testable without a
:class:`~repro.sim.world.World`.  Layering is enforced by
``tools/check_layers.py``: this package may import :mod:`repro.des`,
:mod:`repro.network` and :mod:`repro.timesync` but never
:mod:`repro.core`, :mod:`repro.vehicle`, :mod:`repro.sim` or
:mod:`repro.cli`.
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.protocol.degrade": ("DegradationMonitor",),
    "repro.protocol.guard": ("SequenceGuard",),
    "repro.protocol.loop": ("RequestLoop",),
    "repro.protocol.sync": ("TimeSyncResponder", "TimeSyncSession"),
    "repro.protocol.validate": ("CommandValidator",),
})

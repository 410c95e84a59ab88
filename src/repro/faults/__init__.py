"""Deterministic, seed-driven fault injection for the network stack.

The seed channel models exactly two imperfections: i.i.d. message loss
and a delay distribution *clipped at the protocol's assumed bound*.
Latency-robust AIM work (Liu et al. 2020) shows the dangerous regime is
everything outside that envelope — correlated loss bursts, delay spikes
past the worst-case bound, duplicated and reordered deliveries, and
whole radio-dark windows.  This package models those regimes:

* :mod:`repro.faults.models` — per-message fault processes
  (Gilbert–Elliott burst loss, unbounded delay spikes, duplication,
  reordering jitter);
* :mod:`repro.faults.schedule` — scripted fault windows ("IM radio
  dark from t=40 to t=45") composed into a :class:`FaultSchedule`;
* :mod:`repro.faults.injector` — the :class:`FaultInjector` the
  channel consults per transmission, with its **own** RNG stream so a
  zeroed configuration consumes no channel randomness and stays
  bit-identical to the fault-free path (the differential regression
  test pins this).

Everything is driven by one :class:`FaultConfig`, which also parses the
CLI's ``run --faults`` spec strings (``"burst,spike,blackout=40:45"``).
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.faults.injector": ("FaultInjector",),
    "repro.faults.models": (
        "DelaySpikes", "Duplication", "GilbertElliottLoss", "ReorderJitter",
    ),
    "repro.faults.schedule": (
        "FaultConfig", "FaultSchedule", "FaultWindow", "random_fault_config",
    ),
})

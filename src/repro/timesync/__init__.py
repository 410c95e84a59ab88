"""Clock models and NTP-style time synchronisation (paper Ch 3.2).

The scale-model testbed is a distributed system: each vehicle has its own
crystal (offset + drift) and synchronises to the IM with NTP.  The paper
measures a 1 ms residual synchronisation error, which at the 3 m/s top
speed contributes 3 mm to the longitudinal safety buffer.

This package provides:

* :class:`Clock` — a local clock with constant offset, linear drift and
  read jitter, mapping true (simulation) time to local time.
* :func:`ntp_offset` / :func:`ntp_delay` — the classic four-timestamp
  NTP estimators (Mills 1991).
* :class:`NtpClient` — repeated-exchange client logic: keeps the sample
  with the smallest round-trip delay (the standard NTP filter) and steps
  the local clock.
* :func:`sync_buffer` — converts a residual sync error into the buffer
  length it costs at a given speed.
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.timesync.clock": ("Clock",),
    "repro.timesync.ntp": (
        "NtpClient", "NtpSample", "ntp_delay", "ntp_offset", "sync_buffer",
    ),
})

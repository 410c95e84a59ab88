"""Shared intersection-manager machinery.

:class:`BaseIM` runs two DES processes:

* a *receive loop* that services sync requests immediately (the NTP
  responder is trivial) and queues crossing/AIM requests FIFO — the
  paper's "after processing the requests ahead in a FIFO queue";
* a *compute worker* serving one request at a time, charging each
  request's service time to the policy's
  :class:`~repro.core.compute.ComputeModel` before replying.  Requests
  that arrive together therefore queue, which is exactly how the
  testbed's worst-case computation delay (135 ms for four simultaneous
  arrivals) comes about.

Subclasses implement :meth:`handle_crossing` (build the reply and
report the work done) and :meth:`handle_exit`.  :class:`SchedulerIM`
does both for the VT-style IMs, which book on a
:class:`~repro.core.scheduler.ConflictScheduler` and differ only in
their booking call and reply type (:meth:`SchedulerIM.book`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.compute import ComputeModel, LinearComputeModel
from repro.core.scheduler import ConflictScheduler
from repro.des import Environment, Store
from repro.obs.events import NULL_LOG
from repro.network.channel import Radio
from repro.network.messages import (
    AimRequest,
    CancelReservation,
    CrossingRequest,
    ExitNotification,
    Message,
    SyncRequest,
)
from repro.protocol import SequenceGuard, TimeSyncResponder

__all__ = ["BaseIM", "IMConfig", "IMStats", "SchedulerIM"]


@dataclass
class IMConfig:
    """Policy-independent IM parameters (testbed defaults).

    Attributes
    ----------
    wc_rtd:
        Worst-case round-trip delay bound, seconds (Ch 4: 150 ms).
    wc_network:
        Worst-case one-way network delay, seconds (Ch 4: 7.5 ms).
    base_buffer:
        Sensing + sync buffer every policy assumes, metres (78 mm).
    v_max:
        Intersection speed limit, m/s.
    v_min:
        Crawl-speed floor for approach planning, m/s.
    address:
        The IM's network address.
    """

    wc_rtd: float = 0.150
    wc_network: float = 0.0075
    base_buffer: float = 0.078
    v_max: float = 3.0
    #: Slowest crossing velocity the IM will ever command.  No real
    #: controller commands centimetres per second; this also bounds a
    #: single vehicle's box-occupancy time.
    v_min: float = 0.25
    #: Crossroads only: slowest acceptable crossing speed for a cruise
    #: plan; below it the IM assigns a timed stop-and-go launch (the
    #: time-sensitive interface can express one; the plain VT interface
    #: cannot).  Must match the vehicles' ``AgentConfig.arrive_floor``.
    v_arrive_floor: float = 1.2
    #: Grace period before the IM invalidates the reservation of a
    #: vehicle that should long have cleared the box but was never
    #: heard from again (lost exit notification, radio-dark window,
    #: crashed agent).  Swept by the world's 1 Hz watchdog via
    #: :meth:`BaseIM.invalidate_quiet`.
    quiet_timeout: float = 5.0
    address: str = "IM"

    def __post_init__(self):
        if self.wc_rtd <= 0 or self.wc_network < 0:
            raise ValueError("delays must be positive")
        if self.base_buffer < 0:
            raise ValueError("base_buffer must be non-negative")
        if self.v_max <= 0 or self.v_min <= 0 or self.v_min > self.v_max:
            raise ValueError("need 0 < v_min <= v_max")
        if self.quiet_timeout <= 0:
            raise ValueError("quiet_timeout must be positive")


@dataclass
class IMStats:
    """Aggregate IM-side counters."""

    sync_requests: int = 0
    crossing_requests: int = 0
    accepts: int = 0
    rejects: int = 0
    exits: int = 0
    peak_queue: int = 0
    #: Reservations withdrawn by the quiet-vehicle watchdog (stale
    #: bookings whose owner was never heard from again).
    invalidations: int = 0
    #: Out-of-order (reordered / long-delayed) requests dropped by the
    #: receive loop's per-sender monotonic sequence guard.  Processing
    #: one would reschedule the vehicle from stale state and release
    #: the reservation it is committed to — a collision hazard.
    stale_requests_dropped: int = 0
    #: Longest single request service time charged, seconds (for
    #: WC-CD analysis): a running maximum, the same float ``max()``
    #: over every charged time would give, without keeping them all.
    worst_service_time: float = 0.0


class BaseIM:
    """Abstract intersection manager bound to a radio.

    Parameters
    ----------
    env:
        DES environment.
    radio:
        The IM's attached radio (address must equal ``config.address``).
    compute:
        Computation-delay model.
    config:
        Shared parameters.
    """

    def __init__(
        self,
        env: Environment,
        radio: Radio,
        compute: ComputeModel,
        config: Optional[IMConfig] = None,
    ):
        self.env = env
        self.radio = radio
        self.compute = compute
        self.config = config if config is not None else IMConfig()
        if radio.address != self.config.address:
            raise ValueError("radio address must match config.address")
        self.stats = IMStats()
        #: Observability sink (the world injects its event bus when
        #: tracing; the default null log costs one attribute test).
        self.obs = NULL_LOG
        #: FIFO of sender addresses with work pending; only the *latest*
        #: request per sender is kept (a retransmission supersedes the
        #: original — re-answering every duplicate would melt the queue).
        self._work_queue: Store = Store(env)
        self._pending: dict = {}
        #: Per-sender monotonic request/grant sequence tracking: drops
        #: reordered or duplicated stale requests, and identifies stale
        #: cancels that predate the sender's most recent grant (a cancel
        #: can race a newer request through the compute queue).
        self.guard = SequenceGuard()
        #: NTP answerer: echo ``t0``, stamp ``t1 = t2 = now`` (the IM
        #: is the time reference; its turnaround is absorbed by the
        #: compute model, not the NTP path).
        self.sync_responder = TimeSyncResponder(radio, address=self.config.address)
        env.process(self._receive_loop())
        env.process(self._compute_worker())

    # -- policy hooks --------------------------------------------------------
    def handle_crossing(self, message: Message) -> Tuple[Optional[Message], dict]:
        """Build the reply for a crossing/AIM request.

        Returns ``(response_or_None, work)`` where ``work`` kwargs feed
        the compute model (e.g. ``reservations=`` or ``cells=``).
        """
        raise NotImplementedError

    def handle_exit(self, message: ExitNotification) -> None:
        """Free whatever state the policy holds for the vehicle."""
        raise NotImplementedError

    def note_grant(self, sender: str, request_seq: int) -> None:
        """Record that ``sender``'s request ``request_seq`` was granted."""
        self.guard.note_grant(sender, request_seq)

    def handle_cancel(self, message: CancelReservation) -> None:
        """Withdraw the sender's reservation (defaults to exit logic).

        A cancel that predates the sender's most recent grant is stale:
        the vehicle already renegotiated, and releasing the *new*
        reservation would hand its slot to cross traffic while the
        vehicle is committed to using it.
        """
        if self.guard.stale_cancel(message.sender, message.seq):
            return
        self.handle_exit(message)  # same cleanup for every policy here

    def invalidate_quiet(self, now: float) -> int:
        """Withdraw reservations of vehicles gone quiet (subclass hook).

        Called by the world's watchdog process roughly once per
        simulated second.  A vehicle whose reservation should long have
        cleared the box (``config.quiet_timeout`` past its clear time)
        but never sent an exit notification — lost message, blackout
        window, degraded safe-stop far from the line — must not block
        cross traffic forever.  Returns the number of reservations
        withdrawn; implementations add it to ``stats.invalidations``.
        """
        return 0

    # -- processes -------------------------------------------------------------
    def _receive_loop(self):
        while True:
            message = yield self.radio.receive()
            if isinstance(message, SyncRequest):
                self.stats.sync_requests += 1
                # The IM is the time reference.
                self.sync_responder.respond(message, self.env.now)
            elif isinstance(message, (CrossingRequest, AimRequest)):
                self.stats.crossing_requests += 1
                if self.obs.enabled:
                    self.obs.emit(
                        "im.recv", self.env.now, self.config.address,
                        corr=getattr(message, "corr", 0),
                        msg=type(message).__name__, sender=message.sender,
                        queue=len(self._work_queue),
                    )
                if not self.guard.admit_request(message.sender, message.seq):
                    # Reordered or long-delayed stale request: the
                    # sender has already issued (and may be driving on
                    # the grant of) a newer one.  Rescheduling from this
                    # out-of-date state would release the live
                    # reservation and hand its window to cross traffic.
                    self.stats.stale_requests_dropped += 1
                    if self.obs.enabled:
                        self.obs.emit(
                            "im.drop_stale", self.env.now, self.config.address,
                            corr=getattr(message, "corr", 0),
                            sender=message.sender, seq=message.seq,
                        )
                    continue
                if message.sender not in self._pending:
                    self._work_queue.put_nowait(message.sender)
                self._pending[message.sender] = message
                self.stats.peak_queue = max(self.stats.peak_queue, len(self._work_queue))
            elif isinstance(message, ExitNotification):
                self.stats.exits += 1
                self.handle_exit(message)
            elif isinstance(message, CancelReservation):
                self.handle_cancel(message)
            # Unknown message types are dropped silently, like hardware.

    def _compute_worker(self):
        """Serve admitted crossing/AIM requests one at a time.

        Builds each reply, charges the compute model's service time,
        propagates the exchange correlation id onto the reply and sends
        it.  Emits the ``im.compute.begin`` / ``im.compute.end`` /
        ``im.reply`` (or ``im.silent``) observability records.
        """
        while True:
            sender = yield self._work_queue.get()
            message = self._pending.pop(sender, None)
            if message is None:
                continue
            corr = getattr(message, "corr", 0)
            obs = self.obs
            if obs.enabled:
                obs.emit(
                    "im.compute.begin", self.env.now, self.config.address,
                    corr=corr, sender=message.sender,
                )
            response, work = self.handle_crossing(message)
            service = self.compute.charge(**work)
            stats = self.stats
            stats.worst_service_time = max(stats.worst_service_time, service)
            yield self.env.timeout(service)
            if obs.enabled:
                obs.emit(
                    "im.compute.end", self.env.now, self.config.address,
                    corr=corr, service=service,
                )
            if response is not None:
                response.corr = corr
                if obs.enabled:
                    data = {"msg": type(response).__name__}
                    te = getattr(response, "te", None)
                    if te is not None:
                        data["te"] = te
                    toa = getattr(response, "toa", None)
                    if toa is not None:
                        data["toa"] = toa
                    obs.emit(
                        "im.reply", self.env.now, self.config.address,
                        corr=corr, **data,
                    )
                self.radio.send(response)
            elif obs.enabled:
                obs.emit(
                    "im.silent", self.env.now, self.config.address,
                    corr=corr, sender=message.sender,
                )


class SchedulerIM(BaseIM):
    """A VT-style IM: books crossing requests on a
    :class:`~repro.core.scheduler.ConflictScheduler`.

    One request path serves both policies: prune the book, note the
    requester on the FCFS waitlist, book through :meth:`book`, and
    count a grant.  Exits and cancels release the vehicle's booking;
    the watchdog drops bookings of vehicles gone quiet.  ``compute``
    defaults to the calibrated :class:`LinearComputeModel`.
    """

    def __init__(
        self, env: Environment, radio: Radio, scheduler: ConflictScheduler,
        config: Optional[IMConfig] = None,
        compute: Optional[ComputeModel] = None,
    ):
        if compute is None:
            compute = LinearComputeModel()
        super().__init__(env, radio, compute, config)
        self.scheduler = scheduler

    def book(self, message: CrossingRequest) -> Optional[Message]:
        """Book ``message`` through the policy's booking function: the
        command to send, or None to stay silent (the vehicle retries)."""
        raise NotImplementedError

    def handle_crossing(self, message: Message) -> Tuple[Optional[Message], dict]:
        if not isinstance(message, CrossingRequest):
            return None, {"reservations": 0}
        now = self.env.now
        self.scheduler.prune(now)
        info = message.vehicle_info
        self.scheduler.note_request(info.vehicle_id, info.movement, now)
        response = self.book(message)
        if response is not None:
            self.stats.accepts += 1
            self.note_grant(message.sender, message.seq)
        return response, {"reservations": len(self.scheduler)}

    def handle_exit(self, message: ExitNotification) -> None:
        vehicle_id = _vehicle_id_from_address(message.sender)
        if vehicle_id is not None:
            self.scheduler.release(vehicle_id)
        self.scheduler.prune(self.env.now)

    def invalidate_quiet(self, now: float) -> int:
        """Drop bookings whose owner should long have cleared the box.

        In fault-free runs every exit notification arrives and the book
        is already clean; under lossy/blackout regimes this watchdog
        sweep is what unblocks cross traffic.
        """
        dropped = self.scheduler.prune(now, grace=self.config.quiet_timeout)
        self.stats.invalidations += dropped
        return dropped


def _vehicle_id_from_address(address: str) -> Optional[int]:
    """Parse the numeric id out of a "V<id>" vehicle address."""
    if address.startswith("V"):
        try:
            return int(address[1:])
        except ValueError:
            return None
    return None

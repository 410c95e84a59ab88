"""Shared wireless channel and per-node radios.

The :class:`Channel` is the medium; each node owns a :class:`Radio`
registered under a unique address.  ``radio.send(msg)`` hands the message
to the channel, which delivers it into the destination radio's inbox
after a delay drawn from the channel's :class:`~repro.network.delay.DelayModel`
(unless the message is lost).  Receiving is a blocking DES ``get`` on the
inbox store.

The channel also keeps :class:`NetworkStats` — message and byte counters
per message type — which the Ch 7.2 overhead comparison reads.  Losses
are attributed per reason (``by_reason``): random ``channel`` loss,
injected ``burst``/``blackout`` faults, and ``no_route`` for messages
addressed to a detached or never-attached radio — previously all three
were conflated into one counter.

A :class:`~repro.faults.FaultInjector` may be attached to overlay
correlated bursts, out-of-bound delay spikes, duplication and
reordering on top of the base loss/delay models.  The injector draws
from its *own* RNG stream, so a null injector leaves the channel's
random sequence — and therefore the whole simulation — bit-identical
to the fault-free path.  Radios de-duplicate deliveries by sequence
number (a bounded recent-seq window), so injected duplicates are
counted and dropped instead of re-entering the protocol machines.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import numpy as np

from repro.des import Environment, Event, Store
from repro.network.delay import ConstantDelay, DelayModel
from repro.network.messages import Message
from repro.network.transport import Transport
from repro.obs.events import NULL_LOG

__all__ = ["Channel", "NetworkStats", "Radio"]


@dataclass
class NetworkStats:
    """Aggregate traffic counters for one channel."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    bytes_sent: int = 0
    by_type: Counter = field(default_factory=Counter)
    #: Loss/drop attribution: "channel" (i.i.d. loss), "burst"
    #: (Gilbert–Elliott), "blackout" (scripted window), "no_route"
    #: (detached/unknown receiver), "duplicate" (receiver-side dedup).
    by_reason: Counter = field(default_factory=Counter)
    #: Per-endpoint attribution: sent messages / bytes / dedup drops
    #: keyed by participating address.  Every message increments both
    #: its sender's and its receiver's bucket, so on a *shared* medium
    #: carrying several intersection managers (the corridor grid) the
    #: traffic involving one IM is simply ``by_endpoint[im_address]``.
    #: On a single-IM world every message involves the IM, making
    #: ``by_endpoint[im] == sent`` — the grid/world equivalence test
    #: relies on that identity.
    by_endpoint: Counter = field(default_factory=Counter)
    bytes_by_endpoint: Counter = field(default_factory=Counter)
    dupes_by_endpoint: Counter = field(default_factory=Counter)
    #: Extra copies injected by the fault layer.
    duplicates_injected: int = 0
    #: Copies dropped by receiver-side dedup (not counted in ``lost``:
    #: the original was delivered).
    duplicates_dropped: int = 0

    @property
    def inflight(self) -> int:
        """Messages (and injected copies) sent but not yet delivered or
        dropped: every copy ends in exactly one of ``delivered``,
        ``lost`` or ``duplicates_dropped``."""
        return (
            self.sent + self.duplicates_injected
            - self.delivered - self.lost - self.duplicates_dropped
        )

    def advance(self, registry, now: float) -> None:
        """Advance ``registry``'s ``net.sent``, ``net.delivered`` and
        ``net.dropped{reason}`` counters to these totals (idempotent:
        samplers sharing one medium count each message once)."""
        registry.counter("net.sent").advance_to(self.sent, now)
        registry.counter("net.delivered").advance_to(self.delivered, now)
        for reason, n in self.by_reason.items():
            registry.counter("net.dropped", {"reason": reason}).advance_to(n, now)

    def record_send(self, message: Message) -> None:
        self.sent += 1
        self.bytes_sent += message.size
        self.by_type[type(message).__name__] += 1
        for endpoint in (message.sender, message.receiver):
            self.by_endpoint[endpoint] += 1
            self.bytes_by_endpoint[endpoint] += message.size

    def record_delivery(self) -> None:
        self.delivered += 1

    def record_loss(self, reason: str = "channel") -> None:
        self.lost += 1
        self.by_reason[reason] += 1

    def record_duplicate_injected(self) -> None:
        self.duplicates_injected += 1

    def record_duplicate_dropped(self, message: Optional[Message] = None) -> None:
        self.duplicates_dropped += 1
        self.by_reason["duplicate"] += 1
        if message is not None:
            for endpoint in (message.sender, message.receiver):
                self.dupes_by_endpoint[endpoint] += 1


class Radio:
    """A network endpoint with an address and a FIFO inbox.

    The radio remembers the last :attr:`DEDUP_WINDOW` delivered
    sequence numbers and refuses re-deliveries — the receiver-side
    half of duplicate suppression (fault-injected copies carry the
    *same* seq; protocol retransmissions are new messages with new
    seqs and pass through untouched).
    """

    #: Recent-seq window size for duplicate suppression.
    DEDUP_WINDOW = 1024

    def __init__(self, channel: "Channel", address: str):
        self.channel = channel
        self.address = address
        self.inbox: Store = Store(channel.env)
        self._seen: Set[int] = set()
        self._seen_order: deque = deque()

    def send(self, message: Message) -> None:
        """Transmit ``message`` (fire and forget, like the testbed)."""
        if message.sender != self.address:
            raise ValueError(
                f"radio {self.address!r} cannot send on behalf of "
                f"{message.sender!r}"
            )
        self.channel.transmit(message)

    def accept(self, message: Message) -> bool:
        """Deliver into the inbox unless ``message.seq`` was already
        seen; returns False for a suppressed duplicate."""
        if message.seq in self._seen:
            return False
        self._seen.add(message.seq)
        self._seen_order.append(message.seq)
        if len(self._seen_order) > self.DEDUP_WINDOW:
            self._seen.discard(self._seen_order.popleft())
        self.inbox.put_nowait(message)
        return True

    def receive(self) -> Event:
        """DES event yielding the next delivered message."""
        return self.inbox.get()

    def pending(self) -> int:
        """Number of delivered-but-unread messages."""
        return len(self.inbox)

    def __repr__(self) -> str:
        return f"Radio({self.address!r})"


class Channel(Transport):
    """Broadcast medium with per-message delay and loss — the default
    in-process :class:`~repro.network.transport.Transport`.

    Parameters
    ----------
    env:
        DES environment.
    delay_model:
        One-way delay model (default: zero delay).
    loss_probability:
        Independent per-message loss probability in ``[0, 1)``.
    rng:
        Random generator for delay/loss draws.
    faults:
        Optional :class:`~repro.faults.FaultInjector`.  Consulted per
        transmission; owns its own RNG, so a null injector changes
        nothing about the channel's random sequence.
    obs:
        Optional :class:`~repro.obs.EventLog`.  When given, the channel
        emits ``net.send`` / ``net.deliver`` / ``net.drop`` records
        (tracing never touches the channel RNG, so a traced run stays
        bit-identical to an untraced one).
    """

    def __init__(
        self,
        env: Environment,
        delay_model: Optional[DelayModel] = None,
        loss_probability: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        faults: Optional["FaultInjector"] = None,
        obs=None,
    ):
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        self.env = env
        self.delay_model = delay_model if delay_model is not None else ConstantDelay(0.0)
        self.loss_probability = loss_probability
        self.rng = rng if rng is not None else np.random.default_rng()
        self.faults = faults
        self.obs = obs if obs is not None else NULL_LOG
        self.stats = NetworkStats()
        self._radios: Dict[str, Radio] = {}

    def attach(self, address: str) -> Radio:
        """Create and register a radio under ``address``."""
        if address in self._radios:
            raise ValueError(f"address {address!r} already attached")
        radio = Radio(self, address)
        self._radios[address] = radio
        return radio

    def detach(self, address: str) -> None:
        """Remove a radio; in-flight messages to it are dropped and
        attributed to ``no_route`` in :attr:`NetworkStats.by_reason`."""
        self._radios.pop(address, None)

    def _emit_drop(self, message: Message, reason: str) -> None:
        if self.obs.enabled:
            self.obs.emit(
                "net.drop", self.env.now, message.sender,
                corr=getattr(message, "corr", 0),
                msg=type(message).__name__, reason=reason,
            )

    def transmit(self, message: Message) -> None:
        """Schedule delivery of ``message`` to its receiver."""
        self.stats.record_send(message)
        if self.obs.enabled:
            self.obs.emit(
                "net.send", self.env.now, message.sender,
                corr=getattr(message, "corr", 0),
                msg=type(message).__name__, to=message.receiver,
                size=message.size,
            )
        extra_delay = 0.0
        duplicate_delay = None
        if self.faults is not None:
            verdict = self.faults.on_transmit(message, self.env.now)
            if verdict.drop_reason is not None:
                self.stats.record_loss(verdict.drop_reason)
                self._emit_drop(message, verdict.drop_reason)
                return
            extra_delay = verdict.extra_delay
            duplicate_delay = verdict.duplicate_delay
        if self.loss_probability and self.rng.random() < self.loss_probability:
            self.stats.record_loss("channel")
            self._emit_drop(message, "channel")
            return
        delay = self.delay_model.sample(self.rng) + extra_delay
        self.env.process(self._deliver(message, delay))
        if duplicate_delay is not None:
            self.stats.record_duplicate_injected()
            self.env.process(
                self._deliver(message, delay + duplicate_delay, duplicate=True)
            )

    def _deliver(self, message: Message, delay: float, duplicate: bool = False):
        yield self.env.timeout(delay)
        radio = self._radios.get(message.receiver)
        if radio is None:
            self.stats.record_loss("no_route")
            self._emit_drop(message, "no_route")
            return
        if radio.accept(message):
            self.stats.record_delivery()
            if self.obs.enabled:
                self.obs.emit(
                    "net.deliver", self.env.now, message.receiver,
                    corr=getattr(message, "corr", 0),
                    msg=type(message).__name__, sender=message.sender,
                    duplicate=duplicate,
                )
        else:
            self.stats.record_duplicate_dropped(message)
            self._emit_drop(message, "duplicate")

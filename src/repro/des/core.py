"""Core event loop: :class:`Environment`, events, processes.

The design follows the classic event-queue architecture used by simpy:

* An :class:`Event` is a one-shot future.  It starts *pending*, becomes
  *triggered* when a value (or an exception) is assigned and it is placed
  on the environment's queue, and becomes *processed* once its callbacks
  have run.
* A :class:`Process` wraps a generator.  Each value the generator yields
  must be an :class:`Event`; the process suspends until that event is
  processed, then resumes with the event's value (or the event's
  exception is thrown into the generator).
* The :class:`Environment` holds the clock and a priority queue of
  triggered events ordered by ``(time, priority, sequence)``.

The kernel is intentionally strict: waiting on an already-failed event
re-raises, yielding a non-event raises ``SimulationError``, and time can
never run backwards.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
]

#: Priority for "urgent" events (process resumption) — lower runs first.
URGENT = 0
#: Default priority for ordinary events.
NORMAL = 1

_INF = float("inf")


class SimulationError(Exception):
    """Raised for kernel misuse (bad yields, double triggers, ...)."""


class Event:
    """A one-shot future that processes can wait on.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = Event.PENDING
        self._ok: bool = True
        #: Whether a raised failure was consumed by a waiter.
        self._defused: bool = False

    # -- introspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or an exception has been assigned."""
        return self._value is not Event.PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is fully done)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value.  Raises if the event is not yet triggered."""
        if self._value is Event.PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the
        event.  If nothing ever waits on a failed event, the environment
        re-raises it at the end of the step ("errors should never pass
        silently").
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"{exception!r} is not an exception")
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    The kernel's most frequent event (one per control tick), so it sets
    :class:`Event`'s fields and schedules itself inline rather than
    through ``Event.__init__`` and ``Environment._schedule``.
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:
            raise ValueError(f"delay must be a non-negative number, not {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = delay
        env._eid += 1
        heappush(env._queue, (env._now + delay, NORMAL, env._eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay} at {hex(id(self))}>"


class Initialize(Event):
    """Internal: immediately-scheduled event that starts a process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks = [process._wake]
        self._ok = True
        self._value = None
        env._schedule(self, URGENT, 0.0)


class Process(Event):
    """A running process.  Also an event that triggers when it ends.

    The wrapped generator may ``return`` a value; that value becomes the
    process-event's value, so processes can be composed::

        result = yield env.process(sub_task(env))
    """

    __slots__ = ("_generator", "_wake")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: ``_resume``, bound once: every wait registers this callback.
        self._wake = self._resume
        Initialize(env, self)

    def _resume(self, event: Event) -> None:
        """Resume the generator with ``event``'s outcome."""
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if not isinstance(next_event, Event):
            error = SimulationError(
                f"process yielded a non-event: {next_event!r}"
            )
            self._generator.close()
            self.fail(error)
            return
        if next_event.env is not self.env:
            self._generator.close()
            self.fail(SimulationError("yielded an event from a foreign environment"))
            return

        if next_event.callbacks is not None:
            # Pending or triggered-but-unprocessed: wait for it.
            next_event.callbacks.append(self._wake)
        else:
            # Already processed: resume immediately (still via the queue
            # so that event ordering stays consistent).
            resume = Event(self.env)
            resume._ok = next_event._ok
            resume._value = next_event._value
            if not next_event._ok:
                next_event._defused = True
                resume._defused = True
            resume.callbacks = [self._wake]
            self.env._schedule(resume, URGENT, 0.0)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process({name}) at {hex(id(self))}>"


class AnyOf(Event):
    """Triggers when *any* of the given events has succeeded.

    The value is a dict of the processed, successful events and their
    values; a failing event fails the condition instead.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = tuple(events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError("condition mixes environments")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        # Collect only *processed* events: a Timeout carries its value
        # from construction, so `triggered` alone would leak events that
        # have not actually fired yet.
        self.succeed({e: e._value for e in self._events if e.processed and e._ok})


class Environment:
    """Simulation environment: virtual clock plus event queue.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (seconds by convention).
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        if math.isnan(self._now):
            raise ValueError("initial_time must not be NaN")
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        #: Events processed so far — the one count behind both
        #: ``perf["count.des_events"]`` and the ``des.events`` metric.
        self.events_processed = 0
        #: Optional observability sink (duck-typed — ``des`` sits at the
        #: same layer level as ``repro.obs`` and never imports it).  When
        #: set to an event log whose ``kernel`` flag is true, the kernel
        #: emits one high-volume ``des.step`` record per processed event.
        self.obs = None

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that fires after ``delay``."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        self._eid += 1
        heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def _process(self, horizon: float, single: bool = False) -> None:
        """Process the events due by ``horizon`` (only the next one if
        ``single``), in ``(time, priority, sequence)`` order.

        The one event-processing body, shared by :meth:`step` and every
        form of :meth:`run`.  No event time is NaN (timeouts reject a
        NaN delay, the clock a NaN start), so ``<= inf`` admits every
        event.
        """
        queue = self._queue
        while queue and queue[0][0] <= horizon:
            time, _priority, _eid, event = heappop(queue)
            if time < self._now - 1e-12:
                raise SimulationError("time cannot run backwards")
            if time > self._now:
                self._now = time
            self.events_processed += 1
            obs = self.obs
            if obs is not None and obs.kernel:
                obs.emit("des.step", self._now, "kernel", type=type(event).__name__)
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks or ():
                callback(event)
            if not event._ok and not event._defused:
                # Nothing consumed this failure: surface it.
                raise event._value
            if single:
                return

    def step(self) -> None:
        """Process one event.  Raises if the queue is empty."""
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        self._process(_INF, single=True)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that time), or an :class:`Event` (run until it is
        processed, returning its value).
        """
        if until is None:
            self._process(_INF)
            return None
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if not self._queue:
                    raise SimulationError(
                        f"schedule drained before {stop!r} triggered"
                    )
                self._process(_INF, single=True)
            if not stop._ok:
                raise stop._value
            return stop._value
        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"until={horizon} lies in the past (now={self._now})")
        self._process(horizon)
        self._now = horizon
        return None

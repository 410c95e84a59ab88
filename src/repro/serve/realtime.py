"""Wall-clock pacing of the DES kernel for the serve mode.

The IM core is a set of DES processes (receive loop, compute worker,
watchdog).  In serve mode those processes must advance against *wall*
time: a request arriving over the socket is delivered at the simulated
instant corresponding to "now", and the compute model's service time
elapses as real milliseconds before the reply leaves.

:class:`RealtimeBridge` maps ``loop.time()`` to ``env.now`` through
``time_scale`` (simulated seconds per wall second — 10 means the sim
runs 10x faster than reality, letting load tests compress minutes of
traffic into seconds) and drives the kernel from one event-loop timer
handle: when it fires, every due event runs and the timer is re-armed
for the next one.  ``kick()`` does the same catch-up inline, for a
caller that just injected work from a socket callback, so no wake-up
task sits between a frame and the kernel.  Only the loop calls into
the bridge (a timer or a socket callback), never a DES callback, so
the bridge never re-enters ``env.run``.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

__all__ = ["RealtimeBridge"]


class RealtimeBridge:
    """Paces a DES :class:`~repro.des.Environment` against wall time."""

    def __init__(self, env, time_scale: float = 1.0, idle_tick: float = 0.2):
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.env = env
        self.time_scale = time_scale
        #: Longest wall wait between catch-ups while the event queue is
        #: empty (bounds how late ``until()`` is seen; a kick catches up
        #: at once anyway).
        self.idle_tick = idle_tick
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._origin = 0.0
        self._timer: Optional[asyncio.TimerHandle] = None
        #: Resolved by :meth:`stop` (or ``until()``); ``run`` awaits it.
        self._done: Optional[asyncio.Future] = None
        self._until: Optional[Callable[[], bool]] = None
        self._stopped = False

    def start(self) -> None:
        """Bind to the running loop; wall 'now' becomes ``env.now``."""
        self._loop = asyncio.get_running_loop()
        self._origin = self._loop.time() - self.env.now / self.time_scale
        self._stopped = False

    @property
    def sim_now(self) -> float:
        """The simulated time corresponding to this wall instant."""
        assert self._loop is not None, "bridge not started"
        return (self._loop.time() - self._origin) * self.time_scale

    def wall(self) -> float:
        """The loop's monotonic wall clock (seconds)."""
        assert self._loop is not None, "bridge not started"
        return self._loop.time()

    def sync(self) -> None:
        """Run every due event and advance ``env.now`` to wall-now."""
        target = self.sim_now
        if target > self.env.now:
            self.env.run(until=target)

    def kick(self) -> None:
        """New events were injected: catch the kernel up to wall-now
        and re-arm the timer for the next due event."""
        if self._done is not None:
            self._tick()

    def stop(self) -> None:
        """Cancel the timer and let :meth:`run` return."""
        self._stopped = True
        self._finish(None)

    async def run(self, until: Optional[Callable[[], bool]] = None) -> None:
        """Drive the kernel until :meth:`stop` (or ``until()`` is true).

        Each catch-up runs every due event, then checks ``until`` and
        arms the timer for the next scheduled event (or ``idle_tick``
        ahead when none is, whichever is sooner).  An exception raised
        by the kernel ends the run and is raised here.
        """
        assert self._loop is not None, "bridge not started"
        if self._stopped:
            return
        self._until = until
        done = self._done = self._loop.create_future()
        self._tick()
        try:
            await done
        finally:  # cancelled too: no timer outlives the run
            self._finish(None)

    def _on_timer(self) -> None:
        self._timer = None
        self._tick()

    def _tick(self) -> None:
        """One catch-up: run what is due, then re-arm or finish."""
        try:
            self.sync()
            if self._until is not None and self._until():
                self._finish(None)
                return
        except Exception as exc:
            self._finish(exc)
            return
        # The wall instant the next event falls due (inf when none is).
        when = self._origin + self.env.peek() / self.time_scale
        latest = self._loop.time() + self.idle_tick
        if when > latest:
            when = latest
        timer = self._timer
        if timer is not None:
            if timer.when() == when:
                return
            timer.cancel()
        self._timer = self._loop.call_at(when, self._on_timer)

    def _finish(self, exc: Optional[BaseException]) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        done, self._done = self._done, None
        if done is None or done.done():
            return
        if exc is None:
            done.set_result(None)
        else:
            done.set_exception(exc)

"""Shared resources for the DES kernel.

:class:`Store` is an unbounded FIFO buffer of items with a blocking
``get``; radios use one per endpoint as a receive queue, and every IM
queues its pending senders in one.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.des.core import Environment, Event, SimulationError

__all__ = ["Store"]


class Store:
    """Unbounded FIFO item buffer with blocking ``get``.

    Parameters
    ----------
    env:
        Owning environment.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> list:
        """Snapshot of currently buffered items (oldest first)."""
        return list(self._items)

    def _dispatch(self) -> None:
        """Hand buffered items to waiting getters, oldest first."""
        while self._getters and self._items:
            getter = self._getters.popleft()
            if getter.triggered:  # cancelled
                continue
            getter.succeed(self._items.popleft())

    # -- public API -------------------------------------------------------
    def put_nowait(self, item: Any) -> None:
        """Store ``item`` immediately."""
        self._items.append(item)
        self._dispatch()

    def get(self) -> Event:
        """Event that succeeds with the next item (FIFO order)."""
        event = self.env.event()
        self._getters.append(event)
        self._dispatch()
        return event

    def get_nowait(self) -> Any:
        """Pop the next item immediately or raise if empty."""
        if not self._items:
            raise SimulationError("get_nowait() on an empty store")
        return self._items.popleft()

    def cancel_get(self, event: Event) -> None:
        """Withdraw a pending ``get`` so it cannot consume an item.

        Needed by receive-with-timeout patterns: an abandoned getter
        would otherwise silently swallow the next item.  Cancelling an
        already-satisfied get is a no-op.
        """
        if event.triggered:
            return
        try:
            self._getters.remove(event)
        except ValueError:
            pass

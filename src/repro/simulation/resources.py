"""Shared-resource primitives for simulation processes.

Two classic primitives, modeled after queueing-theory usage:

* :class:`Resource` — ``capacity`` identical slots (a CPU, a tape drive);
  processes ``request()`` a slot, yield the returned event, and must
  ``release()`` it when done.
* :class:`Store` — an unbounded-or-bounded FIFO of Python objects
  (a message queue); ``put``/``get`` return events.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.simulation.kernel import Event, SimulationError, Simulator

__all__ = ["Resource", "Store", "Request"]


class Request(Event):
    """Event returned by :meth:`Resource.request`; triggers on acquisition."""

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource

    def cancel(self) -> None:
        """Withdraw an un-granted request from the wait queue."""
        if self in self.resource._waiting:
            self.resource._waiting.remove(self)

    # Context-manager sugar: ``with resource.request() as req: yield req``
    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._triggered and self.ok:
            self.resource.release(self)
        else:
            self.cancel()


class Resource:
    """``capacity`` interchangeable slots with a FIFO wait queue."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._users: list[Request] = []
        self._waiting: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    def request(self) -> Request:
        """Request a slot; the returned event triggers on acquisition."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Release a held slot, admitting the longest-waiting request."""
        if request not in self._users:
            raise SimulationError("releasing a request that does not hold a slot")
        self._users.remove(request)
        if self._waiting:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed(nxt)


class Store:
    """FIFO buffer of arbitrary items with optional capacity bound."""

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Insert an item; blocks (as an event) while the store is full."""
        event = Event(self.sim)
        if self._getters:
            # Hand the item straight to the longest-waiting getter.
            self._getters.popleft().succeed(item)
            event.succeed(None)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed(None)
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Remove the oldest item; blocks (as an event) while empty."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
            if self._putters:
                put_event, item = self._putters.popleft()
                self._items.append(item)
                put_event.succeed(None)
        else:
            self._getters.append(event)
        return event

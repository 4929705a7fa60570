"""Shared-resource primitive for simulation processes.

:class:`Resource` — ``capacity`` identical slots (a CPU, a tape drive);
processes ``request()`` a slot, yield the returned event, and must
``release()`` it when done.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.simulation.kernel import Event, SimulationError, Simulator

__all__ = ["Resource", "Request"]


class Request(Event):
    """Event returned by :meth:`Resource.request`; triggers on acquisition."""

    __slots__ = ("resource",)

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

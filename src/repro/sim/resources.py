"""Shared-resource primitives: :class:`Resource`, :class:`Container`.

These model contention: a PCI-e link is a ``Resource(capacity=1)``, a
GPU's copy engines a ``Resource(capacity=2)``, a memory pool a
``Container``.  Requests are events, so processes wait in deterministic
FIFO (or priority) order.

Usage::

    link = Resource(env, capacity=1)

    def copy(env, link):
        req = link.request()
        yield req
        try:
            yield env.timeout(transfer_time)
        finally:
            link.release(req)
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING, List, Tuple

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Request", "Resource", "PriorityResource", "Container"]


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted.

    Supports ``with``-style use inside process generators::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource", "priority", "_key")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self._key: Tuple[int, int] = (priority, next(resource._seq))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Request {self.resource.name!r} state={self._state}>"

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release if granted, or withdraw from the wait queue."""
        self.resource.release(self)


class Resource:
    """A capacity-limited resource with a FIFO wait queue."""

    def __init__(self, env: "Environment", capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.name = name
        self._capacity = capacity
        self._seq = count()
        self._waiting: List[Tuple[Tuple[int, int], Request]] = []
        self._users: List[Request] = []

    # -- inspection ------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of requests currently holding the resource."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        """Number of requests waiting for the resource."""
        return len(self._waiting)

    # -- operations ------------------------------------------------------
    def request(self, priority: int = 0) -> Request:
        """Claim a unit of capacity; the returned event fires when granted."""
        req = Request(self, priority=priority)
        heapq.heappush(self._waiting, (req._key, req))
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a granted unit (or withdraw an ungranted request)."""
        if request in self._users:
            self._users.remove(request)
        else:
            # Lazy removal from the wait heap.
            for i, (_, queued) in enumerate(self._waiting):
                if queued is request:
                    self._waiting.pop(i)
                    heapq.heapify(self._waiting)
                    break
        self._grant()

    def _grant(self) -> None:
        while self._waiting and len(self._users) < self._capacity:
            _, req = heapq.heappop(self._waiting)
            if req.triggered:
                continue  # cancelled before being granted
            self._users.append(req)
            req.succeed(req, priority=0)


class PriorityResource(Resource):
    """A :class:`Resource` whose ``request(priority=...)`` jumps the queue.

    Lower priority values are served first; ties break FIFO.
    """


class Container:
    """A continuous stock of substance with blocking get/put.

    Used for modelling bounded memory pools: ``get`` blocks until the
    requested amount is available, ``put`` blocks while it would exceed
    ``capacity``.
    """

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
        name: str = "container",
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if init < 0 or init > capacity:
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self.name = name
        self._capacity = float(capacity)
        self._level = float(init)
        self._seq = count()
        self._getters: List[Tuple[int, float, Event]] = []
        self._putters: List[Tuple[int, float, Event]] = []

    @property
    def level(self) -> float:
        return self._level

    @property
    def capacity(self) -> float:
        return self._capacity

    def get(self, amount: float) -> Event:
        """Event that fires once ``amount`` has been withdrawn."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        evt = Event(self.env, name=f"get:{self.name}")
        heapq.heappush(self._getters, (next(self._seq), amount, evt))
        self._settle()
        return evt

    def put(self, amount: float) -> Event:
        """Event that fires once ``amount`` has been deposited."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if amount > self._capacity:
            raise ValueError(f"put of {amount} exceeds total capacity {self._capacity}")
        evt = Event(self.env, name=f"put:{self.name}")
        heapq.heappush(self._putters, (next(self._seq), amount, evt))
        self._settle()
        return evt

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                seq, amount, evt = self._putters[0]
                if self._level + amount <= self._capacity:
                    heapq.heappop(self._putters)
                    self._level += amount
                    evt.succeed(priority=0)
                    progressed = True
            if self._getters:
                seq, amount, evt = self._getters[0]
                if amount <= self._level:
                    heapq.heappop(self._getters)
                    self._level -= amount
                    evt.succeed(priority=0)
                    progressed = True

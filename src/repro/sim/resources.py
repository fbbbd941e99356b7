"""The shared-resource primitive: :class:`Resource`.

It models contention: a PCI-e link is a ``Resource(capacity=1)``, a
GPU's copy engines a ``Resource(capacity=2)``, a NIC channel one more.
Requests are events, so processes wait in deterministic FIFO order.

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

from collections import deque
from typing import TYPE_CHECKING, Deque, List

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Request", "Resource"]


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted.

    Supports ``with``-style use inside process generators::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource

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
        self._waiting: Deque[Request] = deque()
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
    def request(self) -> Request:
        """Claim a unit of capacity; the returned event fires when granted."""
        req = Request(self)
        self._waiting.append(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a granted unit (or withdraw an ungranted request)."""
        if request in self._users:
            self._users.remove(request)
        elif request in self._waiting:
            self._waiting.remove(request)
        self._grant()

    def _grant(self) -> None:
        while self._waiting and len(self._users) < self._capacity:
            req = self._waiting.popleft()
            self._users.append(req)
            req.succeed(req, priority=0)

"""Message-passing stores for the simulation engine.

:class:`Store` is an unbounded (or bounded) FIFO of Python objects with
blocking ``get``.  It is the building block for mailboxes in the
simulated MPI layer and for the work queues of the GPMR scheduler.

:class:`FilterStore` adds ``get(filter=...)`` so a consumer can wait
for a *specific* item (e.g. an MPI receive matching a (source, tag)
pair).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Store", "FilterStore", "StorePut", "StoreGet"]


class StorePut(Event):
    """Fires once the attached item has been accepted by the store."""

    __slots__ = ("item",)

    def __init__(self, env: "Environment", item: Any, name: str = "") -> None:
        super().__init__(env, name=name)
        self.item = item


class StoreGet(Event):
    """Fires with a matching item once one is available."""

    __slots__ = ("filter",)

    def __init__(
        self,
        env: "Environment",
        filter: Optional[Callable[[Any], bool]] = None,  # noqa: A002
        name: str = "",
    ) -> None:
        super().__init__(env, name=name)
        self.filter = filter or (lambda item: True)


class Store:
    """FIFO store of arbitrary items with event-based get/put."""

    def __init__(self, env: "Environment", capacity: float = float("inf"), name: str = "store") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.name = name
        self._capacity = capacity
        self._items: List[Any] = []
        self._getters: List[StoreGet] = []
        self._putters: List[StorePut] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def items(self) -> List[Any]:
        """Snapshot of currently stored items (FIFO order)."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> StorePut:
        """Event that fires once ``item`` has been accepted."""
        evt = StorePut(self.env, item)
        self._putters.append(evt)
        self._settle()
        return evt

    def get(self) -> StoreGet:
        """Event that fires with the oldest item once one is available."""
        evt = StoreGet(self.env)
        self._getters.append(evt)
        self._settle()
        return evt

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self._items) < self._capacity:
                putter = self._putters.pop(0)
                self._items.append(putter.item)
                putter.succeed(priority=0)
                progressed = True
            for getter in list(self._getters):
                match_idx = None
                for i, item in enumerate(self._items):
                    if getter.filter(item):
                        match_idx = i
                        break
                if match_idx is not None:
                    item = self._items.pop(match_idx)
                    self._getters.remove(getter)
                    getter.succeed(item, priority=0)
                    progressed = True


class FilterStore(Store):
    """A :class:`Store` whose consumers may wait for matching items only."""

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:  # noqa: A002
        evt = StoreGet(self.env, filter=filter)
        self._getters.append(evt)
        self._settle()
        return evt

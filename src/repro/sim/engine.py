"""The discrete-event simulation core: :class:`Environment`.

The environment owns the virtual clock and the event calendar (a binary
heap keyed by ``(time, priority, sequence)``, so simultaneous events
fire in deterministic insertion order).  All other simulation
components — processes, resources, the GPU and network models — are
built on top of this class.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Generator, Iterable, List, Tuple

from .events import AllOf, Event, Timeout
from .process import Process

__all__ = ["Environment", "EmptySchedule"]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


#: Priority used for "urgent" scheduling (resource bookkeeping fires
#: before same-time user events).
URGENT = 0
#: Default event priority.
NORMAL = 1


class Environment:
    """Execution environment for a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories -------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value=value)

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Spawn ``generator`` as a new simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling ------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Insert ``event`` into the calendar ``delay`` units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        heapq.heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def step(self) -> None:
        """Process the single next event (advancing the clock to it)."""
        try:
            when, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self._now = when
        event._run_callbacks()

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the calendar drains;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event fires, returning its
          value (or raising its exception).
        """
        if until is None:
            try:
                while True:
                    self.step()
            except EmptySchedule:
                return None

        if isinstance(until, Event):
            stop: List[Any] = []
            until.callbacks.append(stop.append)
            while not stop:
                try:
                    self.step()
                except EmptySchedule:
                    raise RuntimeError(
                        f"simulation ran dry before {until!r} fired"
                    ) from None
            if until._exception is not None:
                raise until._exception
            return until._value

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"cannot run until {horizon} < now ({self._now})")
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        self._now = horizon
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Environment now={self._now} queued={len(self._queue)}>"

"""Event primitives for the discrete-event simulation engine.

The engine (:mod:`repro.sim.engine`) advances a virtual clock and fires
events in (time, priority, insertion-order) order.  Processes
(:mod:`repro.sim.process`) are generators that ``yield`` events; the
engine resumes them when the yielded event fires.

Event lifecycle::

    PENDING ---> TRIGGERED ---> PROCESSED
       (succeed/fail)   (callbacks ran)

An event may *succeed* with a value or *fail* with an exception.  A
failed event re-raises its exception inside every process waiting on
it, unless the failure was *defused* (consumed by an :class:`AllOf`
or a process that already handled it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Environment

__all__ = [
    "Event",
    "Timeout",
    "AllOf",
    "PENDING",
    "TRIGGERED",
    "PROCESSED",
]

#: Event has been created but not yet scheduled.
PENDING = 0
#: Event has been scheduled (has a value or an exception) but callbacks
#: have not run yet.
TRIGGERED = 1
#: Event callbacks have been executed.
PROCESSED = 2


class Event:
    """A happening at a point in simulated time.

    Parameters
    ----------
    env:
        The owning :class:`~repro.sim.engine.Environment`.
    name:
        Optional debugging label.
    """

    __slots__ = ("env", "name", "callbacks", "_value", "_exception", "_state", "_defused")

    def __init__(self, env: "Environment", name: str = "") -> None:
        self.env = env
        self.name = name
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._state = PENDING
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once all callbacks have executed."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The event's value (raises if the event failed)."""
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine will not crash."""
        self._defused = True

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = 1) -> "Event":
        """Schedule this event to fire *now* with ``value``."""
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        self._state = TRIGGERED
        self.env.schedule(self, delay=0.0, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = 1) -> "Event":
        """Schedule this event to fire *now*, raising ``exception`` in waiters."""
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._state = TRIGGERED
        self.env.schedule(self, delay=0.0, priority=priority)
        return self

    # -- engine hook ---------------------------------------------------
    def _run_callbacks(self) -> None:
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)
        if self._exception is not None and not self._defused:
            raise self._exception

    # -- composition -----------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} state={self._state}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = float(delay)
        self._value = value
        self._state = TRIGGERED
        env.schedule(self, delay=self.delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout({self.delay}) state={self._state}>"


class AllOf(Event):
    """Fires once *all* sub-events have fired (fails fast on error).

    Its value is a dict mapping each fired sub-event to its value, in
    firing order.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, name="AllOf")
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")

        if not self._events:
            self.succeed({})
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_values(self) -> dict:
        # Only events whose callbacks have run (fired) contribute values;
        # Timeout objects are born TRIGGERED, so `triggered` alone would
        # wrongly include not-yet-elapsed timeouts.
        return {e: e._value for e in self._events if e.processed and e.ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            if event._exception is not None:
                event.defuse()
            return
        self._count += 1
        if event._exception is not None:
            event.defuse()
            self.fail(event._exception)
        elif self._count == len(self._events):
            self.succeed(self._collect_values())

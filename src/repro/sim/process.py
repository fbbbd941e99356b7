"""Generator-based simulation processes.

A *process* is a Python generator that yields :class:`~repro.sim.events.Event`
objects.  Yielding an event suspends the process until the event fires;
the event's value is returned from the ``yield`` expression (or its
exception is raised at the ``yield``).

Processes are themselves events: they fire when the generator returns,
with the generator's return value, so processes can wait on each other::

    def child(env):
        yield env.timeout(5)
        return 42

    def parent(env):
        result = yield env.process(child(env))   # result == 42
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from .events import Event, PENDING

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Process"]


class Process(Event):
    """Wraps a generator and steps it as the events it yields fire."""

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any], name: str = "") -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator

        # Kick-start the process at the current simulation time.
        init = Event(env)
        init._state = 1  # TRIGGERED with value None
        init.callbacks.append(self._resume)
        env.schedule(init, delay=0.0)

    @property
    def is_alive(self) -> bool:
        return self._state == PENDING

    # -- engine stepping ---------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        while True:
            try:
                if trigger._exception is not None:
                    trigger.defuse()
                    next_target = self._generator.throw(trigger._exception)
                else:
                    next_target = self._generator.send(trigger._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                break
            except BaseException as exc:
                self.fail(exc)
                break

            if not isinstance(next_target, Event):
                raise RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_target!r}"
                )
            if next_target.env is not self.env:
                raise RuntimeError("cannot wait on an event from another environment")

            if next_target.processed:
                # Already fired: continue stepping synchronously.
                trigger = next_target
                continue
            next_target.callbacks.append(self._resume)
            break

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} alive={self.is_alive}>"

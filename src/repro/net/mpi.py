"""MPI-like message passing over the simulated fabric (substrate S4).

GPMR's Bin substage and shuffle use MPI point-to-point plus a barrier.
This module provides an mpi4py-flavoured API on the DES:

* :meth:`Communicator.isend` — non-blocking send, returns an event
  that fires on delivery
* :meth:`Communicator.recv` — blocking receive with ``(source, tag)``
  matching (``ANY`` wildcards)
* :meth:`Communicator.barrier` — generation-counted barrier

Because workers are plain generator processes (not OS processes), the
caller passes its rank explicitly.  Payloads are real Python/NumPy
objects — the functional half — while the temporal half is priced from
the message's ``nbytes`` through the fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Sequence

from .fabric import Fabric
from ..sim import Environment, Event, FilterStore
from ..sim.events import PROCESSED

__all__ = ["ANY", "Message", "Communicator"]

#: Wildcard for ``recv`` source/tag matching.
ANY = -1


@dataclass(frozen=True)
class Message:
    """One delivered point-to-point message."""

    source: int
    dest: int
    tag: int
    payload: Any
    nbytes: int


class _Send:
    """One message on its way, stepped by callbacks on the events that
    price it, in this order:

    1. the host's ``message_overhead`` timeout, started by the send;
    2. one request per channel of the route, waited in route order;
    3. the wire timeout, after which the channels are released;
    4. the put into the destination's mailbox, and :attr:`done`, which
       fires with the :class:`Message`.  The mailbox is unbounded, so
       the put is accepted at once and nothing waits on it.

    Only the events hold a ``_Send`` (through the bound methods in
    their callbacks), never the reverse, so a delivered send is freed by
    reference counting and leaves no cycle for the collector.
    """

    __slots__ = (
        "comm", "source", "dest", "payload", "nbytes", "tag", "done",
        "channels", "requests", "granted", "wire_time",
    )

    def __init__(
        self, comm: "Communicator", source: int, dest: int, payload: Any,
        nbytes: int, tag: int,
    ) -> None:
        self.comm = comm
        self.source = source
        self.dest = dest
        self.payload = payload
        self.nbytes = nbytes
        self.tag = tag
        self.done = Event(comm.env)
        if comm.message_overhead:
            comm.env.timeout(comm.message_overhead).callbacks.append(self._request)
        else:
            self._request(None)

    def _request(self, _event: Event) -> None:
        comm = self.comm
        channels, latency, bandwidth = comm.fabric.path(
            comm.rank_to_node[self.source], comm.rank_to_node[self.dest]
        )
        self.channels = channels
        self.wire_time = latency + self.nbytes / bandwidth
        self.requests = [channel.request() for channel in channels]
        self.granted = 0
        self._acquire(None)

    def _acquire(self, _event: Event) -> None:
        requests = self.requests
        while self.granted < len(requests):
            req = requests[self.granted]
            self.granted += 1
            if req._state != PROCESSED:
                req.callbacks.append(self._acquire)
                return
        self.comm.env.timeout(self.wire_time).callbacks.append(self._transmitted)

    def _transmitted(self, _event: Event) -> None:
        for channel, req in zip(self.channels, self.requests):
            channel.release(req)
        comm = self.comm
        comm.fabric.bytes_sent += int(self.nbytes)
        comm.fabric.messages_sent += 1
        msg = Message(self.source, self.dest, self.tag, self.payload, self.nbytes)
        comm._mailboxes[self.dest].put(msg)
        comm.bytes_by_rank[self.source] += int(self.nbytes)
        self.done.succeed(msg)


class Communicator:
    """A group of ranks mapped onto cluster nodes."""

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        rank_to_node: Sequence[int],
        message_overhead: float = 2e-6,
    ) -> None:
        if not rank_to_node:
            raise ValueError("communicator needs at least one rank")
        self.env = env
        self.fabric = fabric
        self.rank_to_node = list(rank_to_node)
        self.message_overhead = message_overhead
        self._mailboxes = [
            FilterStore(env, name=f"mbox{r}") for r in range(self.size)
        ]
        self._barrier_gen = 0
        self._barrier_count = 0
        self._barrier_event = env.event(name="barrier0")
        self.bytes_by_rank = [0] * self.size

    @property
    def size(self) -> int:
        return len(self.rank_to_node)

    def node_of(self, rank: int) -> int:
        return self.rank_to_node[rank]

    # -- point to point ------------------------------------------------------
    def _check_rank(self, rank: int, what: str) -> None:
        if not (0 <= rank < self.size):
            raise ValueError(f"{what} rank {rank} out of range [0, {self.size})")

    def isend(
        self, source: int, dest: int, payload: Any, nbytes: int, tag: int = 0
    ) -> Event:
        """Non-blocking send; the returned event fires with the
        :class:`Message` on delivery."""
        self._check_rank(source, "source")
        self._check_rank(dest, "dest")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return _Send(self, source, dest, payload, nbytes, tag).done

    def send(
        self, source: int, dest: int, payload: Any, nbytes: int, tag: int = 0
    ) -> Generator:
        """Process: blocking send (completes on delivery)."""
        msg = yield self.isend(source, dest, payload, nbytes, tag)
        return msg

    def recv(self, rank: int, source: int = ANY, tag: int = ANY) -> Event:
        """Event firing with the first :class:`Message` matching the filter."""
        self._check_rank(rank, "receiver")

        def match(msg: Message) -> bool:
            return (source == ANY or msg.source == source) and (
                tag == ANY or msg.tag == tag
            )

        return self._mailboxes[rank].get(filter=match)

    def pending(self, rank: int) -> int:
        """Messages waiting in ``rank``'s mailbox."""
        return len(self._mailboxes[rank])

    # -- barrier ---------------------------------------------------------
    def barrier(self, rank: int) -> Event:
        """Event that fires once every rank has entered this barrier round."""
        self._check_rank(rank, "barrier")
        evt = self._barrier_event
        self._barrier_count += 1
        if self._barrier_count == self.size:
            self._barrier_count = 0
            self._barrier_gen += 1
            self._barrier_event = self.env.event(name=f"barrier{self._barrier_gen}")
            evt.succeed(self._barrier_gen)
        return evt

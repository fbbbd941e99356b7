"""The Bin substage: CPU-threaded network transmission of pairs.

"Bin is the only stage of the pipeline executed on the CPU ... GPMR
takes advantage of modern multicore processors by running it in a
separate thread, yielding a more thorough overlap of communication with
the mapping computation."  Here each bin is a simulation process: it
charges buffer packing to a host core, then ships each reducer's bucket
with one MPI send ("requiring only one network send per Reducer").

Completion protocol: receivers cannot know how many data messages to
expect, so after its last bin each worker sends a FLUSH message to
every rank carrying the count of DATA messages it sent there.

Every DATA payload is wrapped as ``(seq, KeyValueSet)``, where ``seq``
counts this sender's submissions to that destination.  Receivers order
the gathered payloads by ``(source rank, seq)`` — a *canonical* shuffle
order that does not depend on simulated arrival times, so the sim
backend produces bit-identical reductions to the real execution
backends (see :mod:`repro.exec`).
"""

from __future__ import annotations

from typing import Generator, List, Sequence, Tuple

from .engine import Environment
from .events import Event
from ..core.kvset import KeyValueSet
from ..hw.cpu import HostCPU
from ..net.mpi import Communicator

__all__ = ["TAG_DATA", "TAG_FLUSH", "Binner"]

TAG_DATA = 10
TAG_FLUSH = 11


class Binner:
    """Per-worker bin bookkeeping and transmission."""

    def __init__(
        self,
        env: Environment,
        comm: Communicator,
        cpu: HostCPU,
        rank: int,
    ) -> None:
        self.env = env
        self.comm = comm
        self.cpu = cpu
        self.rank = rank
        self.sent_counts = [0] * comm.size
        #: logical bytes binned to *other* ranks (real network traffic)
        self.bytes_sent = 0
        #: logical bytes binned to this rank itself (loopback, not wire)
        self.bytes_kept_local = 0
        self._inflight: List[Event] = []

    # -- transmission ------------------------------------------------------
    def _bin_proc(self, sends_planned: List[Tuple[int, int, KeyValueSet]]) -> Generator:
        total_bytes = sum(p.nbytes_logical for _, _, p in sends_planned)
        if total_bytes:
            # Host-side packing of the send buffers on one core.
            yield from self.cpu.process_bytes(total_bytes, tag="bin-pack")
        sends = [
            self.comm.isend(
                self.rank, dest, (seq, part), part.nbytes_logical, tag=TAG_DATA
            )
            for dest, seq, part in sends_planned
        ]
        if sends:
            yield self.env.all_of(sends)

    def submit(self, parts: Sequence[Tuple[int, KeyValueSet]]) -> Event:
        """Launch an asynchronous bin of one emission's ``(dest, part)``
        pieces (:attr:`~repro.core.dataflow.MapStep.parts`); empty parts
        are not sent.

        Sequence numbers are assigned here, in submission order, so the
        canonical shuffle order matches the order chunks were mapped
        regardless of how the asynchronous bins interleave.
        """
        planned: List[Tuple[int, int, KeyValueSet]] = []
        for dest, part in parts:
            if len(part) == 0:
                continue
            planned.append((dest, self.sent_counts[dest], part))
            self.sent_counts[dest] += 1
            # Self-destined parts ride the loopback, not the network —
            # keep the byte ledgers split the same way the real
            # backends split bytes_sent_network / bytes_kept_local.
            if dest == self.rank:
                self.bytes_kept_local += part.nbytes_logical
            else:
                self.bytes_sent += part.nbytes_logical
        proc = self.env.process(self._bin_proc(planned), name=f"bin:r{self.rank}")
        self._inflight.append(proc)
        return proc

    def drain(self) -> Event:
        """Event firing once every submitted bin has completed."""
        return self.env.all_of(list(self._inflight))

    def flush(self) -> List[Event]:
        """Send FLUSH (with DATA-message counts) to every rank."""
        return [
            self.comm.isend(self.rank, dest, self.sent_counts[dest], 16, tag=TAG_FLUSH)
            for dest in range(self.comm.size)
        ]

    # -- reception ---------------------------------------------------------
    def receive_all(self) -> Generator:
        """Process: gather this rank's incoming DATA payloads.

        Completes once a FLUSH has arrived from every rank and every
        promised DATA message has been received.  Returns the received
        :class:`KeyValueSet` payloads in canonical ``(source, seq)``
        order, independent of simulated arrival times.
        """
        flushes_seen = 0
        promised = 0
        received: List[Tuple[int, int, KeyValueSet]] = []
        while flushes_seen < self.comm.size or len(received) < promised:
            msg = yield self.comm.recv(self.rank)
            if msg.tag == TAG_FLUSH:
                flushes_seen += 1
                promised += msg.payload
            elif msg.tag == TAG_DATA:
                seq, part = msg.payload
                received.append((msg.source, seq, part))
            else:  # pragma: no cover - protocol violation
                raise RuntimeError(f"unexpected message tag {msg.tag}")
        received.sort(key=lambda item: (item[0], item[1]))
        return [part for _, _, part in received]

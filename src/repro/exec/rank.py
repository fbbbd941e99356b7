"""The one rank loop every real backend runs.

The paper's worker is a single Figure-1 flow — pull chunk → map →
partial-reduce/accumulate → partition → bin → sort → reduce — and this
module is the only place it is written down for the real backends:

* :class:`RankRun` is one rank's compute: it owns the
  :class:`~repro.core.dataflow.MapRunner`, the
  :class:`~repro.core.stats.WorkerStats` and the spans, and steps
  ``map_chunk(chunk, victim)`` → ``finish_map()`` → ``reduce(batches)``.
* :func:`drive_rank` moves one :class:`RankRun` through a *link* — the
  backend's transport — doing pull → map → mark-posted → exchange →
  merge → reduce → report, plus the failure courtesy.
  ``fabric/endpoint.py`` supplies the one link, framed TCP, which the
  ``local`` and ``cluster`` backends share; the serial backend has no
  link at all and steps *n* :class:`RankRun`\\ s round-robin itself.
* :class:`GrantPuller` is the rank-side half of the pull protocol
  (one-ahead pull window, drain-after-DONE, stall and kill injection),
  parameterised only by how a request is sent and how an answer is
  received.

A link is a plain object with::

    rank
    open() -> job                   # handshake; fixes n_workers and obs
    n_workers, obs                  # obs: Observability or NULL_OBS
    request_chunk() -> (chunk, victim) | None
    mark_posted()                   # map output is about to leave
    send(dest, parts, chunk_ids)    # one batch to one peer
    unblock(dest)                   # best-effort empty batch to one peer
    recv_all() -> [(src, parts, chunk_ids)]   # one batch per peer
    report(output, stats, error)    # result, or the failure traceback

Timing semantics (the Figure-2 buckets, identical on every backend):
``map`` is the wall of the rank's pull+map phase — grant waits
included, so a rank starved of grants shows it — and ``bin`` is the
exposed exchange: from the end of the map phase to the last incoming
batch merged (the ``shuffle_recv`` span covers the same interval).
``sort`` and ``reduce`` are recorded inside
:func:`~repro.core.dataflow.reduce_worker`.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from typing import Callable, List, Optional, Set, Tuple

from ..core.dataflow import MapPhaseOutput, MapRunner, merge_incoming, reduce_worker
from ..core.chunk import Chunk
from ..core.job import MapReduceJob
from ..core.kvset import KeyValueSet
from ..core.scheduler import GRANT_DONE
from ..core.stats import WorkerStats
from ..obs import NULL_OBS

__all__ = [
    "PULL_AHEAD",
    "GrantPuller",
    "RankRun",
    "drive_rank",
]

#: The pull window beyond the chunk being mapped: a rank keeps this
#: many chunk requests in flight ahead of its map, so the grant
#: round-trip (and the payload materialisation behind it) overlaps map
#: compute — GPMR's one-ahead double buffer.  A protocol constant, not
#: a setting: :class:`GrantPuller` pipelines ``1 + PULL_AHEAD`` requests.
PULL_AHEAD = 1

Batch = Tuple[int, List[KeyValueSet], Optional[List[int]]]


class GrantPuller:
    """Rank-side half of the pipelined pull protocol.

    ``send_request()`` posts one "next chunk?" request; ``recv_answer()``
    blocks for the next ``(status, chunk, victim)`` answer (status is a
    :data:`~repro.core.scheduler.GRANT_CHUNK` or ``GRANT_DONE`` code).
    The service answers strictly one answer per request, in order.

    Requests are *pipelined*: ``1 + PULL_AHEAD`` ride ahead of their
    answers (:data:`PULL_AHEAD`), so the grant for chunk ``i+1`` is
    usually already buffered while chunk ``i`` maps and the
    ``grant_wait`` span measures only the exposed wait.

    A DONE answer stops the top-up but not the drain: a pipelined
    answer behind a DONE may still be a chunk (a reclaim freed it),
    which resumes the pull, and an unread grant would strand a chunk
    the service considers delivered.  Only "draining with nothing
    pending" ends the pull.

    Fault injection lives here: ``stall_seconds`` sleeps before every
    round (a scripted straggler), and the process SIGKILLs itself upon
    *receiving* its ``kill_at_chunk``-th grant — genuinely mid-map, with
    that grant plus any buffered ones outstanding at the service and
    requests possibly still in flight, exactly like a real crash.
    """

    def __init__(
        self,
        rank: int,
        send_request: Callable[[], None],
        recv_answer: Callable[[], Tuple[int, Optional[Chunk], int]],
        stall_seconds: float = 0.0,
        kill_at_chunk: Optional[int] = None,
        obs=NULL_OBS,
    ) -> None:
        self.rank = rank
        self._send_request = send_request
        self._recv_answer = recv_answer
        self.stall_seconds = float(stall_seconds)
        self.kill_at_chunk = kill_at_chunk
        self.obs = obs
        #: requests posted but not yet answered
        self._pending = 0
        #: a DONE arrived: stop topping up, keep draining
        self._draining = False
        self._grants_received = 0

    def next(self) -> Optional[Tuple[Chunk, int]]:
        """The rank's next ``(chunk, victim)``, or None when done."""
        obs = self.obs
        while True:
            if self.stall_seconds:
                time.sleep(self.stall_seconds)
            while not self._draining and self._pending < 1 + PULL_AHEAD:
                self._send_request()
                self._pending += 1
            if self._draining and self._pending == 0:
                return None
            w0 = time.time()
            status, chunk, victim = self._recv_answer()
            self._pending -= 1
            if obs.enabled:
                w1 = time.time()
                obs.tracer.add_span("grant_wait", w0, w1, rank=self.rank)
                obs.metrics.histogram("grant_latency_s").observe(w1 - w0)
            if status == GRANT_DONE:
                self._draining = True
                continue
            self._draining = False
            self._grants_received += 1
            if (
                self.kill_at_chunk is not None
                and self._grants_received >= self.kill_at_chunk
            ):
                # Die exactly as "kill -9" would: no cleanup, no
                # courtesy batches, the grant never mapped.
                os.kill(os.getpid(), signal.SIGKILL)
            return chunk, victim


class RankRun:
    """One rank's compute: map runner, stats and spans.

    Transport-free — chunks go in through :meth:`map_chunk`, the map
    output comes out of :meth:`batch_for`, peers' batches go into
    :meth:`reduce`.  Every step charges the wall since the previous
    step to its Figure-2 bucket, so waits between steps (a grant
    round-trip, the exchange) land in the bucket of the step they
    delayed.  A driver that interleaves several runs in one thread
    (the serial backend) calls :meth:`resume` when a run's turn starts
    so it is not charged for its neighbours'.
    """

    def __init__(
        self, job: MapReduceJob, rank: int, n_workers: int, obs=NULL_OBS
    ) -> None:
        self.job = job
        self.rank = rank
        self.n_workers = n_workers
        self.obs = obs
        self.stats = WorkerStats(rank=rank)
        self.runner = MapRunner(job, n_workers)
        self.mapped: Optional[MapPhaseOutput] = None
        self.resume()

    def resume(self) -> None:
        """Restart the step clock (the rank's turn begins now)."""
        self._mark = time.perf_counter()

    def _charge(self, stage: str) -> float:
        """Charge the wall since the last step to ``stage``; returns it."""
        now = time.perf_counter()
        seconds = now - self._mark
        self.stats.add(stage, seconds)
        self._mark = now
        return seconds

    def map_chunk(self, chunk: Chunk, victim: int) -> None:
        """Map one granted chunk; a grant robbed from another rank's
        queue counts as a steal (cross-checked against the service's
        ledger after the run)."""
        if victim != self.rank:
            self.stats.chunks_stolen += 1
        w0 = time.time()
        self.runner.feed(chunk)
        self.obs.tracer.add_span(
            "chunk_map", w0, time.time(), rank=self.rank, chunk=chunk.index
        )
        # A descriptor chunk's payload is done with once mapped; dropping
        # it keeps an in-process run's footprint at one chunk per rank.
        chunk.release()
        self._charge("map")

    def finish_map(self) -> MapPhaseOutput:
        """Flush the deferred accumulate/combine paths; ends ``map``."""
        w0 = time.time()
        self.runner.finish()
        mapped = self.mapped = self.runner.out
        self.obs.tracer.add_span("map_finish", w0, time.time(), rank=self.rank)
        stats = self.stats
        stats.chunks_mapped = mapped.chunks_mapped
        stats.pairs_emitted_logical = mapped.pairs_emitted_logical
        stats.bytes_sent_network = mapped.bytes_remote(self.rank)
        stats.bytes_kept_local = mapped.bytes_self(self.rank)
        self._charge("map")
        return mapped

    def batch_for(self, dest: int) -> Batch:
        """This rank's ``(source, parts, chunk_ids)`` batch for ``dest``."""
        return (
            self.rank,
            self.mapped.parts[dest],
            self.mapped.part_chunk_ids[dest],
        )

    def reduce(self, remote_batches: List[Batch]) -> Optional[KeyValueSet]:
        """Merge the peers' batches with the self-destined parts (which
        never touch a transport), then sort + reduce."""
        incoming = merge_incoming([self.batch_for(self.rank), *remote_batches])
        del remote_batches
        r1 = time.time()
        self.obs.tracer.add_span(
            "shuffle_recv", r1 - self._charge("bin"), r1, rank=self.rank
        )
        return reduce_worker(
            self.job, incoming, stats=self.stats,
            obs=self.obs if self.obs.enabled else None,
        )


def drive_rank(link) -> None:
    """Run one rank end to end over ``link`` (see the module docs).

    The "posted" marker goes out before any batch: once a batch may
    have shipped, this rank's map output is in the world and its death
    is no longer recoverable by reclaim (the batches would
    double-count).

    Failure courtesy: a rank that raises — in its handshake, a kernel
    or the exchange — still posts an empty batch to every peer it had
    not already served, so peers cannot deadlock; served destinations
    are tracked one by one because re-posting to an already-served peer
    would make it count two batches from one source and merge
    nondeterministically.  The traceback then reaches the driver as a
    *reported* failure and the rank exits cleanly; only if shipping it
    fails too does the exception propagate, the process die visibly,
    and the driver's liveness watch take over.
    """
    stats = WorkerStats(rank=link.rank)
    served: Set[int] = set()
    try:
        run = RankRun(link.open(), link.rank, link.n_workers, link.obs)
        stats = run.stats
        while True:
            grant = link.request_chunk()
            if grant is None:
                break
            run.map_chunk(*grant)
        run.finish_map()
        link.mark_posted()
        # Staggered order: at each step every rank sends to a different
        # peer, so no inbox queues the whole world's batches at once.
        for step in range(1, run.n_workers):
            dest = (run.rank + step) % run.n_workers
            _src, parts, chunk_ids = run.batch_for(dest)
            link.send(dest, parts, chunk_ids)
            served.add(dest)
        link.report(run.reduce(link.recv_all()), stats, None)
    except BaseException:
        error = traceback.format_exc()
        for dest in range(link.n_workers or 0):
            if dest != link.rank and dest not in served:
                try:
                    link.unblock(dest)
                except Exception:
                    pass  # peer or channel already gone; its deadline covers it
        link.report(None, stats, error)

"""Real parallel execution on ``multiprocessing`` workers.

One OS process per rank runs the shared rank loop
(:func:`repro.exec.rank.drive_rank`) over this module's *link*: the
queue + shared-memory transport between a rank and its driver and
peers (:class:`_LocalLink`).

Chunk distribution is **pull-based**: each rank requests chunks at
runtime from a driver-side
:class:`~repro.core.scheduler.ChunkService` — a service thread answers
``("req", rank)`` messages arriving on a shared queue with per-rank
``(status, chunk, victim)`` answers.  An idle rank therefore steals
work from the longest queue *while the run executes* (the paper's
dynamic load balancing, for real), every grant lands in a recorded
:class:`~repro.core.scheduler.ScheduleTrace` returned as
``JobResult.schedule``, and a supplied ``schedule=`` makes the service
replay a recorded trace grant-for-grant instead.

No wait on the job path is paced by a timer.  The service thread blocks
on the request queue and ends on the ``("stop", -1)`` request the driver
enqueues once every rank is gone; the driver's collect loop sleeps on
the result queue's read end and on each pending rank's process sentinel,
so a result or a death wakes it at once.  ``timeout_seconds`` bounds the
run; it paces nothing.

The "network fabric" is a ``multiprocessing.Queue`` per rank used as a
*control* channel: after its map phase a rank posts exactly one batch
message — ``(source_rank, message, chunk_ids)`` — to every peer's
queue, then blocks until it has collected one batch from each peer.
The message carries only the binary batch manifest plus the name of a
shared-memory segment holding the raw key/value bytes
(:mod:`repro.exec.exchange`); receivers map the arrays in place, so
the shuffle never pickles or pipes the payload.  Receivers order
batches by source rank, which makes the shuffle canonical and the run
deterministic for a given schedule.

Failure handling: a worker that raises ships its traceback to the
driver over the result queue and still posts (empty) batches to every
peer it had not already posted to, so peers cannot deadlock and no peer
ever receives two batches from the same source; the driver re-raises as
:class:`WorkerFailure`.  A worker that dies hard (e.g. killed) wakes
the driver through its sentinel; a worker that exits *cleanly* without
reporting a result is detected the same way instead of being waited
out.  After any run the driver drains the shuffle queues and
unlinks undelivered shared-memory segments.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import queue as queue_mod
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .exchange import (
    decode_batch,
    encode_batch,
    ensure_shared_tracker,
    release_message,
    release_segment,
)
from .rank import GrantPuller, drive_rank
from ..core.executor import Executor, register_backend
from ..core.faults import FaultPlan
from ..core.job import MapReduceJob
from ..core.kvset import KeyValueSet
from ..core.scheduler import (
    DEFAULT_PREFETCH_WINDOW,
    GRANT_CHUNK,
    GRANT_DONE,
    GRANT_RETRY,
    RETRY,
    ChunkService,
)
from ..core.stats import WorkerStats
from ..obs import BYTES_BUCKETS, NULL_OBS, Observability

__all__ = ["LocalExecutor", "WorkerFailure", "dead_worker_failure"]

#: seconds a rank that exited 0 may owe its result before the run fails
_SILENT_EXIT_GRACE = 1.0


class WorkerFailure(RuntimeError):
    """A worker process failed; carries the rank and remote traceback."""

    def __init__(self, rank: int, detail: str) -> None:
        super().__init__(f"worker rank {rank} failed:\n{detail}")
        self.rank = rank
        self.detail = detail


def _default_start_method() -> str:
    # fork is dramatically cheaper and keeps the job object shared
    # copy-on-write; fall back to spawn where fork is unavailable.
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def dead_worker_failure(procs) -> Optional["WorkerFailure"]:
    """The liveness predicate shared by the local and cluster drivers:
    a :class:`WorkerFailure` naming every worker process that died with
    a nonzero exit code, or None while all are healthy."""
    dead = [p for p in procs if not p.is_alive() and p.exitcode not in (0, None)]
    if not dead:
        return None
    codes = {p.name: p.exitcode for p in dead}
    return WorkerFailure(-1, f"worker process(es) died without reporting: {codes}")


@dataclass
class _LocalLink:
    """One rank's queue + shared-memory transport (see the module docs
    and the link contract in :mod:`repro.exec.rank`).

    Built in the driver and shipped to the rank as its process
    argument, so its fields are only queues and plain values;
    :meth:`open` arms the in-process parts once the rank is running.
    """

    rank: int
    n_workers: int
    job: MapReduceJob
    #: record spans/metrics rank-side and ship them home with the result
    trace: bool
    request_queue: Any
    grant_queue: Any
    shuffle_queues: Sequence[Any]
    result_queue: Any
    stall_seconds: float = 0.0
    kill_at_chunk: Optional[int] = None
    prefetch: int = 0

    def open(self) -> MapReduceJob:
        # Built here, not in the driver: an Observability holds locks
        # and cannot travel.  Its picklable export() rides home with
        # the result and the driver absorbs it into the run's bundle.
        self.obs = Observability() if self.trace else NULL_OBS
        #: shared-memory segments behind the batches received so far
        self._segments: List[Any] = []
        # A pipelined request a scripted kill leaves unanswered is
        # safe: the service answers it either onto the old grant queue
        # — which the driver replaces under the service lock, so the
        # grant dies with it — or, after reclaim, onto the
        # replacement's queue, where a chunk is simply mapped by the
        # new incarnation and a trailing DONE goes unread.
        self._puller = GrantPuller(
            self.rank,
            lambda: self.request_queue.put(("req", self.rank)),
            self.grant_queue.get,
            prefetch=self.prefetch,
            stall_seconds=self.stall_seconds,
            kill_at_chunk=self.kill_at_chunk,
            obs=self.obs,
        )
        return self.job

    def request_chunk(self):
        return self._puller.next()

    def mark_posted(self) -> None:
        self.request_queue.put(("posted", self.rank))

    def send(self, dest: int, parts, chunk_ids) -> None:
        obs = self.obs
        counters = {"bytes": 0} if obs.enabled else None
        s0 = time.time()
        message = encode_batch(parts, counters=counters)
        try:
            self.shuffle_queues[dest].put((self.rank, message, chunk_ids))
        except BaseException:
            release_message(message)  # never delivered; unlink now
            raise
        if obs.enabled:
            s1 = time.time()
            obs.tracer.add_span("shuffle_send", s0, s1, rank=self.rank, dest=dest)
            obs.metrics.histogram("shuffle_batch_s").observe(s1 - s0)
            obs.metrics.histogram(
                "shuffle_batch_bytes", bounds=BYTES_BUCKETS
            ).observe(counters["bytes"])

    def unblock(self, dest: int) -> None:
        self.shuffle_queues[dest].put((self.rank, encode_batch([]), []))

    def recv_all(self) -> List[Tuple[int, List[KeyValueSet], List[int]]]:
        batches = []
        for _ in range(self.n_workers - 1):
            src, message, tags = self.shuffle_queues[self.rank].get()
            parts, segment = decode_batch(message)
            if segment is not None:
                self._segments.append(segment)
            batches.append((src, parts, tags))
        return batches

    def report(self, output, stats, error) -> None:
        # The reduce concatenated every incoming part into fresh
        # arrays (or the rank failed): the zero-copy views are dead
        # and the segments behind them can go.
        while self._segments:
            release_segment(self._segments.pop())
        self.result_queue.put(
            (self.rank, error, output, stats, self.obs.export())
        )


def _serve_chunks(
    service: ChunkService,
    request_queue,
    grant_queues,
    errors: List[BaseException],
) -> None:
    """Driver-side service thread: answer pull requests until told to stop.

    Blocks on ``request_queue`` with no timeout and returns on the one
    ``("stop", -1)`` request the driver enqueues once every rank is
    gone (:meth:`LocalExecutor._run_ranks`); the queue is FIFO, so
    requests already queued are still answered first.  A closed or
    broken queue also ends the thread — nothing can arrive on it again.

    Grant messages are ``(status, chunk, victim)`` — ``(GRANT_DONE,
    None, -1)`` tells the requesting rank it is done, ``GRANT_RETRY``
    tells it to re-ask shortly (speculation may free up work).  A
    service failure is stashed in ``errors`` (the driver's collect loop
    re-raises it) and the requester is released with "done" so it
    cannot block forever.

    The service lock is held across request *and* put: the driver's
    recovery path (swap in a fresh grant queue, then ``reclaim``) takes
    the same lock, so a grant can never land on a queue the driver has
    already drained-by-replacement — no chunk is both re-queued and
    stranded on a dead rank's old queue.
    """
    while True:
        try:
            kind, rank = request_queue.get()
        except (OSError, EOFError, ValueError):
            return
        if kind == "stop":
            return
        try:
            with service.guard():
                if kind == "posted":
                    service.mark_posted(rank)
                    continue
                assignment = service.request(rank)
                if assignment is RETRY:
                    grant_queues[rank].put((GRANT_RETRY, None, -1))
                elif assignment is None:
                    grant_queues[rank].put((GRANT_DONE, None, -1))
                else:
                    grant_queues[rank].put(
                        (GRANT_CHUNK, assignment.chunk, assignment.victim)
                    )
        except BaseException as exc:
            errors.append(exc)
            try:
                grant_queues[rank].put((GRANT_DONE, None, -1))
            except BaseException:
                return


class LocalExecutor(Executor):
    """Execute jobs for real on ``n_workers`` OS processes.

    ``fault_plan`` (a :class:`~repro.core.faults.FaultPlan`) arms the
    recovery machinery: ranks it kills mid-map are detected by the
    driver's liveness watch, their un-posted grants are reclaimed into
    the pool, and a replacement process is respawned under the same
    rank id — the run completes with output bit-identical to a
    failure-free run.  Its ``stall_seconds`` make a rank sleep before
    each chunk request (a deliberate straggler whose queue gets
    stolen), and ``speculate_after`` additionally re-executes
    straggling in-flight grants on idle ranks; receivers drop the
    duplicate map output by chunk-id provenance tags.  Without a plan,
    any worker death is a :class:`WorkerFailure` exactly as before.
    """

    name = "local"

    def __init__(
        self,
        n_workers: int,
        initial_distribution: str = "round_robin",
        start_method: Optional[str] = None,
        timeout_seconds: float = 300.0,
        fault_plan: Optional[FaultPlan] = None,
        obs: Optional[Observability] = None,
        trace_path: Optional[str] = None,
        prefetch_window: int = DEFAULT_PREFETCH_WINDOW,
        fused: Optional[bool] = None,
    ) -> None:
        super().__init__(n_workers, obs=obs, trace_path=trace_path, fused=fused)
        self.initial_distribution = initial_distribution
        self.start_method = start_method or _default_start_method()
        self.timeout_seconds = float(timeout_seconds)
        #: chunk requests each rank keeps in flight beyond the one it
        #: is mapping (grant prefetch); 0 disables the overlap
        self.prefetch_window = max(0, int(prefetch_window))
        self.fault_plan = fault_plan
        if fault_plan is not None:
            fault_plan.validate_for(n_workers)

    def _run_ranks(
        self,
        job: MapReduceJob,
        service: ChunkService,
        obs: Optional[Observability],
    ) -> Tuple[List[Optional[KeyValueSet]], List[WorkerStats]]:
        """Spawn the ranks, serve their pulls, collect one result each.

        The collect loop waits, under the ``timeout_seconds`` deadline,
        for a result or for the exit of a rank that still owes one; an
        exit runs the liveness checks (recover, fail, or start the
        silent-exit grace).  Once every rank is joined the chunk service
        is sent its stop request and joined: nothing is left to time out.
        """
        fault = self.fault_plan
        ctx = mp.get_context(self.start_method)
        # One tracker for the whole rank tree — see exchange docs.
        ensure_shared_tracker()
        # mp.Queue writes through a feeder thread, so puts never block
        # on pipe capacity — no exchange deadlock however large a batch
        # (and the message is tiny regardless: payloads ride in shm).
        shuffle_queues = [ctx.Queue() for _ in range(self.n_workers)]
        result_queue = ctx.Queue()
        request_queue = ctx.Queue()
        grant_queues = [ctx.Queue() for _ in range(self.n_workers)]

        service_errors: List[BaseException] = []
        server = threading.Thread(
            target=_serve_chunks,
            args=(service, request_queue, grant_queues, service_errors),
            name="gpmr-chunk-service",
            daemon=True,
        )
        server.start()

        def spawn(rank: int, incarnation: int) -> mp.process.BaseProcess:
            # Only the first incarnation carries the scripted kill: the
            # replacement must survive to finish the reclaimed work.  A
            # stall is a rank property and survives respawn.
            link = _LocalLink(
                rank,
                self.n_workers,
                job,
                obs is not None,
                request_queue,
                grant_queues[rank],
                shuffle_queues,
                result_queue,
                stall_seconds=0.0 if fault is None else fault.stall_for(rank),
                kill_at_chunk=(
                    fault.kill_for(rank)
                    if fault is not None and incarnation == 0
                    else None
                ),
                prefetch=self.prefetch_window,
            )
            return ctx.Process(
                target=drive_rank,
                args=(link,),
                name=f"gpmr-local-r{rank}.{incarnation}",
                daemon=True,
            )

        procs = [spawn(rank, 0) for rank in range(self.n_workers)]
        respawns_left = {
            rank: (fault.max_respawns if fault is not None else 0)
            for rank in range(self.n_workers)
        }
        for p in procs:
            p.start()

        outputs: List[Optional[KeyValueSet]] = [None] * self.n_workers
        worker_stats: List[Optional[WorkerStats]] = [None] * self.n_workers
        failures: List[Tuple[int, str]] = []
        deadline = time.monotonic() + self.timeout_seconds
        pending = {rank for rank in range(self.n_workers)}
        silent_since: Optional[float] = None
        #: ranks seen to exit 0 without a result: their sentinels stay
        #: readable forever, so they leave the wait set
        silent_seen: Set[int] = set()
        try:
            while pending:
                if service_errors:
                    raise service_errors[0]
                now = time.monotonic()
                if now >= deadline:
                    raise TimeoutError(
                        f"local backend timed out after {self.timeout_seconds}s "
                        f"with {len(pending)} worker(s) outstanding"
                    )
                wake_at = deadline
                if silent_since is not None:
                    wake_at = min(deadline, silent_since + _SILENT_EXIT_GRACE)
                # As the stdlib's process pool does: sleep on the result
                # pipe and on the sentinel of every rank still owing one.
                sentinels = {
                    procs[r].sentinel: r for r in pending - silent_seen
                }
                ready = mp_connection.wait(
                    [result_queue._reader, *sentinels], max(0.0, wake_at - now)
                )
                if result_queue._reader not in ready:
                    for sentinel in ready:
                        # the sentinel closes a moment before waitpid
                        # can report the exit: reap before classifying
                        procs[sentinels[sentinel]].join()
                    if fault is not None:
                        self._recover_dead_workers(
                            procs, pending, service, grant_queues,
                            respawns_left, spawn, ctx,
                        )
                    failure = dead_worker_failure(procs)
                    if failure is not None and result_queue.empty():
                        raise failure
                    # A worker that exited *cleanly* (code 0) without
                    # posting a result will never satisfy the loop:
                    # surface it as a failure instead of running out
                    # the full job timeout, after a grace that covers a
                    # result still in flight through the queue's pipe
                    # (a timed wait: see ``silent_seen``).
                    silent = sorted(
                        r for r in pending
                        if not procs[r].is_alive() and procs[r].exitcode == 0
                    )
                    if not silent:
                        silent_since = None
                    elif result_queue.empty():
                        silent_seen.update(silent)
                        if silent_since is None:
                            silent_since = time.monotonic()
                        elif time.monotonic() - silent_since >= _SILENT_EXIT_GRACE:
                            raise WorkerFailure(
                                silent[0],
                                f"worker rank(s) {silent} exited cleanly "
                                "without posting a result",
                            )
                    continue
                rank, error, output, stats, obs_payload = result_queue.get()
                pending.discard(rank)
                if obs is not None:
                    obs.absorb(obs_payload)
                if error is not None:
                    failures.append((rank, error))
                else:
                    outputs[rank] = output
                    worker_stats[rank] = stats
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=5.0)
            # Every rank is gone, so nothing can queue behind the stop.
            request_queue.put(("stop", -1))
            server.join(timeout=5.0)
            self._drain_undelivered(shuffle_queues)
            for q in shuffle_queues + grant_queues + [result_queue, request_queue]:
                q.cancel_join_thread()

        if failures:
            rank, detail = failures[0]
            raise WorkerFailure(rank, detail)
        # A service failure on the *last* grants can release every
        # worker with "done" before the in-loop check sees it; re-check
        # now so a run that silently dropped chunks can never return.
        if service_errors:
            raise service_errors[0]
        return outputs, worker_stats

    def _recover_dead_workers(
        self,
        procs,
        pending: Set[int],
        service: ChunkService,
        grant_queues,
        respawns_left: Dict[int, int],
        spawn,
        ctx,
    ) -> None:
        """Reclaim and respawn every dead rank that is still recoverable.

        A rank qualifies when it died hard (nonzero exit), has respawn
        budget left, and never marked its map output posted (the unit
        of loss is the whole un-posted map phase — once batches may
        have shipped, reclaiming would double-count them).  Ranks that
        do not qualify are deliberately left for
        :func:`dead_worker_failure`, preserving the no-plan failure
        behavior.

        Under the service lock: swap in a *fresh* grant queue for the
        replacement (grants queued to the dead incarnation — consumed
        or not — die with the old queue; no racy drain of a feeder
        pipe), then ``reclaim`` so every grant the dead rank held goes
        back in the pool.  The service thread grants under the same
        lock, so no grant can slip onto the old queue afterwards.
        """
        for rank in sorted(pending):
            p = procs[rank]
            if p.is_alive() or p.exitcode in (0, None):
                continue
            if respawns_left.get(rank, 0) <= 0:
                continue
            if not service.can_recover(rank):
                continue
            if self.obs is not None:
                self.obs.tracer.event("rank_dead", rank=rank,
                                      exitcode=p.exitcode)
            with service.guard():
                grant_queues[rank] = ctx.Queue()
                service.reclaim(rank)
            respawns_left[rank] -= 1
            incarnation = self.fault_plan.max_respawns - respawns_left[rank]
            procs[rank] = spawn(rank, incarnation)
            procs[rank].start()
            if self.obs is not None:
                self.obs.tracer.event("respawn", rank=rank,
                                      incarnation=incarnation)
                self.obs.metrics.counter("respawns").inc()

    @staticmethod
    def _drain_undelivered(shuffle_queues: List[mp.Queue]) -> None:
        """Unlink segments behind messages no worker ever consumed.

        On the happy path the queues are empty; after a failure they
        may still hold batches whose shared-memory segments would
        otherwise outlive the run.  A worker killed or terminated
        mid-``put`` can leave a *partial* message in a queue's pipe;
        ``get_nowait`` then blocks in ``_recv_bytes`` (the poll sees
        bytes, the receive waits for the rest forever), so the drain
        runs in a daemon thread with a bounded join — leaking a
        segment beats hanging the run.
        """
        def _drain() -> None:
            for q in shuffle_queues:
                while True:
                    try:
                        item = q.get_nowait()
                    except (queue_mod.Empty, OSError, EOFError, ValueError):
                        break
                    try:
                        release_message(item[1])
                    except OSError:  # pragma: no cover - best-effort cleanup
                        pass

        t = threading.Thread(
            target=_drain, name="gpmr-drain-undelivered", daemon=True
        )
        t.start()
        t.join(timeout=5.0)


register_backend(LocalExecutor.name, LocalExecutor)

"""The grant ledger: dynamic chunk queues with work stealing.

"GPMR tracks the per-GPU work in a dynamic queue.  If one GPU finishes
its work in its local queue and other GPUs have much more work to do,
we shift chunks between the local queues."  :class:`ChunkService`
keeps one deque per worker, hands out local work first, and otherwise
steals from the *longest* queue.  The sim's caller (pipeline) prices
the steal: chunk serialisation on the victim's CPU plus the wire
transfer when victim and thief live on different nodes.

The service is the one thread-safe, driver-side pull authority of
every backend — the sim's event loop, the serial backend's interleaved
rank loop and the coordinator's ``CHUNK_REQ`` frames (``local`` and
``cluster``) alike.  Balancing is work stealing only: a chunk has at
most one live grant, and is granted again only after its holder died
and :meth:`ChunkService.reclaim` returned it.  Replaying a recorded
:class:`ScheduleTrace` is not a second scheduler: the same service
fills its per-worker queues with the trace's grants and serves them
through the same ledger-writing grant path.  :class:`JobChunkAuthority`
keys many jobs' services by job id; only the perf ledger uses it.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .chunk import Chunk
from ..obs import NULL_OBS
from ..workloads.base import Dataset

__all__ = [
    "Assignment",
    "ChunkService",
    "JobChunkAuthority",
    "DISTRIBUTIONS",
    "GRANT_CHUNK",
    "GRANT_DONE",
    "ScheduleGrant",
    "ScheduleTrace",
    "resolve_chunks",
    "distribute_chunks",
]

#: Deterministic initial chunk distributions shared by all backends.
DISTRIBUTIONS = ("round_robin", "single")


def resolve_chunks(
    dataset: Optional[Dataset], chunks: Optional[Sequence[Chunk]]
) -> List[Chunk]:
    """The job's input chunks from exactly one source.

    A dataset with a ``chunk_reader`` — every registered dataset, the
    file datasets of :mod:`repro.workloads.readers`, and any other
    rebuildable from scalars (see
    :attr:`~repro.workloads.base.Dataset.chunk_reader`) — resolves to
    *descriptor-backed* chunks: the scheduler routes and prices them on
    the dataset's ``chunk_meta`` sizes alone, and each rank builds its
    granted chunks' payloads itself through the reader, instead of the
    driver building and shipping them.  Explicit ``chunks=``, and a
    dataset that cannot be rebuilt elsewhere, give resident chunks.
    """
    if (dataset is None) == (chunks is None):
        raise ValueError("provide exactly one of dataset or chunks")
    if chunks is None:
        reader = getattr(dataset, "chunk_reader", None)
        if reader is not None:
            return [
                Chunk.from_descriptor(reader, i, *dataset.chunk_meta(i))
                for i in range(dataset.n_chunks)
            ]
        return [Chunk.from_work_item(item) for item in dataset.chunks()]
    return list(chunks)


def distribute_chunks(
    chunks: Sequence[Chunk], n_workers: int, how: str = "round_robin"
) -> List[List[Chunk]]:
    """Initial chunk placement, identical on every backend.

    ``round_robin``: chunk i to worker ``i % n``; ``single``:
    everything on worker 0 (as when one node ingested the data).

    This is the single definition of placement the bit-parity contract
    rests on.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if how not in DISTRIBUTIONS:
        raise ValueError(
            f"unknown distribution {how!r}; expected one of {DISTRIBUTIONS}"
        )
    out: List[List[Chunk]] = [[] for _ in range(n_workers)]
    if how == "round_robin":
        for i, chunk in enumerate(chunks):
            out[i % n_workers].append(chunk)
    else:  # "single"
        out[0].extend(chunks)
    return out


#: status codes of a pull answer once it leaves the driver for a rank:
#: every transport ships a ``(status, chunk, victim)`` triple
GRANT_DONE, GRANT_CHUNK = 0, 1


class Assignment(NamedTuple):
    """A unit of work handed to a worker."""

    chunk: Chunk
    #: rank the chunk was queued on (== thief's rank when local)
    victim: int

    def stolen_by(self, worker: int) -> bool:
        """Whether this assignment was robbed from another worker."""
        return self.victim != worker


class ScheduleGrant(NamedTuple):
    """One scheduler decision: ``chunk_id`` went to ``worker``.

    ``was_steal`` is always ``victim != worker``; the victim rank is
    kept as well because the sim prices a steal by where the chunk
    lived (same-node vs. cross-node wire transfer).
    """

    worker: int
    chunk_id: int
    was_steal: bool
    victim: int


class ScheduleTrace:
    """An ordered log of chunk grants — a replayable schedule.

    Every backend's :class:`ChunkService` grows one of these as it
    hands out work — live grants on a native run, re-issued grants on
    a replay — so a load-balanced run on *any* backend reproduces
    decision-for-decision on any other.  The trace is small (three
    ints and a bool per chunk), picklable, and wire-friendly via
    :meth:`to_records`/:meth:`from_records`.
    """

    def __init__(self, grants: Iterable[ScheduleGrant] = ()) -> None:
        self.grants: List[ScheduleGrant] = [ScheduleGrant(*g) for g in grants]

    # -- recording ---------------------------------------------------------
    def record(self, worker: int, chunk_id: int, victim: int) -> ScheduleGrant:
        grant = ScheduleGrant(
            worker=int(worker),
            chunk_id=int(chunk_id),
            was_steal=victim != worker,
            victim=int(victim),
        )
        self.grants.append(grant)
        return grant

    # -- container protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self.grants)

    def __iter__(self) -> Iterator[ScheduleGrant]:
        return iter(self.grants)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduleTrace):
            return NotImplemented
        return self.grants == other.grants

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ScheduleTrace {len(self.grants)} grants, {self.total_steals} steals>"

    # -- ledgers -----------------------------------------------------------
    @property
    def total_steals(self) -> int:
        return sum(1 for g in self.grants if g.was_steal)

    def chunk_counts(self, n_workers: int) -> List[int]:
        """Chunks mapped per worker under this schedule."""
        counts = [0] * n_workers
        for g in self.grants:
            counts[g.worker] += 1
        return counts

    def steals_by_worker(self, n_workers: int) -> List[int]:
        """Chunks each worker obtained by stealing under this schedule."""
        steals = [0] * n_workers
        for g in self.grants:
            if g.was_steal:
                steals[g.worker] += 1
        return steals

    # -- wire form ---------------------------------------------------------
    def to_records(self) -> List[Tuple[int, int, bool, int]]:
        """Plain-tuple form (for persistence or non-pickle transports)."""
        return [tuple(g) for g in self.grants]

    @classmethod
    def from_records(cls, records: Iterable[Sequence]) -> "ScheduleTrace":
        return cls(ScheduleGrant(*r) for r in records)

    # -- replay ------------------------------------------------------------
    def _index_chunks(
        self,
        chunks: Sequence[Chunk],
        n_workers: int,
        context: Optional[str] = None,
    ) -> Dict[int, Chunk]:
        """Validate the trace against a chunk set; map id -> chunk.

        The trace must cover exactly the given chunks (each granted
        once) and name only in-range workers/victims — anything else
        means the caller is replaying the wrong job's schedule.
        ``context`` (app/job name plus phase) prefixes every error, and
        each grant complaint carries the offending grant *index*, so a
        trace/backend mismatch is debuggable from the message alone.
        """
        where = f"replaying schedule for {context}: " if context else ""
        by_id: Dict[int, Chunk] = {}
        for chunk in chunks:
            if chunk.index in by_id:
                raise ValueError(
                    f"{where}chunk ids must be unique to replay a schedule; "
                    f"id {chunk.index} appears twice"
                )
            by_id[chunk.index] = chunk
        seen: Dict[int, int] = {}
        for i, g in enumerate(self.grants):
            if not 0 <= g.worker < n_workers or not 0 <= g.victim < n_workers:
                raise ValueError(
                    f"{where}trace grant #{i} {g} names a rank outside "
                    f"0..{n_workers - 1}"
                )
            if g.was_steal != (g.victim != g.worker):
                raise ValueError(
                    f"{where}trace grant #{i} {g} has an inconsistent steal flag"
                )
            if g.chunk_id not in by_id:
                raise ValueError(
                    f"{where}trace grant #{i} grants chunk {g.chunk_id}, "
                    "which is not in the job"
                )
            if g.chunk_id in seen:
                raise ValueError(
                    f"{where}trace grant #{i} grants chunk {g.chunk_id} twice "
                    f"(first granted by grant #{seen[g.chunk_id]})"
                )
            seen[g.chunk_id] = i
        if len(seen) != len(by_id):
            missing = sorted(set(by_id) - set(seen))
            raise ValueError(
                f"{where}trace does not cover chunk(s) {missing}; a replayed "
                "schedule must grant every chunk exactly once"
            )
        return by_id


class ChunkService:
    """Driver-side authority over a job's chunks: the one grant ledger.

    Every backend's chunk distribution goes through one of these.  The
    service keeps one queue per worker and answers each worker's "next
    chunk?" at runtime: local work first, then a steal from the tail of
    the *longest* queue.  With a recorded ``schedule`` the queues hold
    that trace's grants instead, and each worker is served its own in
    trace order, recorded victims included, so steal pricing replays
    identically.  Either way every grant goes through :meth:`_grant`,
    which writes every ledger — the :attr:`trace`, the per-worker steal
    and retry counts, and chunk ownership — so any run (sim, serial,
    local or cluster) leaves behind a schedule the other backends can
    replay bit-for-bit.  A chunk has at most one live grant.

    Ownership: a granted chunk stays charged to its worker until the
    worker posts its shuffle batches (:meth:`mark_posted`), because
    until then nothing of its map phase has left its process — the unit
    of loss under a worker death is every un-posted grant.
    :meth:`reclaim` returns a dead worker's grants to the pool and
    erases that incarnation from the trace and ledgers, so survivors or
    a respawned replacement re-pull them; a re-grant of a reclaimed
    chunk is a retry.  A replay re-issues a schedule that already
    survived its run, and recovery would diverge from it: under replay
    no death is recoverable and :meth:`reclaim` refuses.

    Requests are serialised under a lock: the sim calls :meth:`request`
    from its event loop, the serial backend from its interleaved rank
    loop, and the cluster coordinator for each ``CHUNK_REQ`` control
    frame.
    """

    #: a victim must have at least this many chunks queued to be robbed
    #: ("other GPUs have much more work to do").
    MIN_VICTIM_QUEUE = 2

    def __init__(
        self,
        chunks: Sequence[Chunk],
        n_workers: int,
        initial_distribution: str = "round_robin",
        enable_stealing: bool = True,
        schedule: Optional[ScheduleTrace] = None,
        context: Optional[str] = None,
        obs=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        n = self.n_workers = int(n_workers)
        self.context = context
        #: the run's observability bundle; grants/steals/reclaims are
        #: recorded as point events and counters (no-ops when untraced)
        self.obs = obs or NULL_OBS
        self.obs.metrics.gauge("chunks_total").set(len(chunks))
        #: True when grants come from a recorded trace, not live stealing
        self.replaying = schedule is not None
        self.enable_stealing = enable_stealing
        #: worker -> what it is served next, in order: queued chunks on
        #: a live run; under replay, its traced grants as Assignments
        self._queues: List[Deque] = [deque() for _ in range(n)]
        if schedule is None:
            for q, assigned in zip(
                self._queues, distribute_chunks(chunks, n, initial_distribution)
            ):
                q.extend(assigned)
        else:
            by_id = schedule._index_chunks(chunks, n, context)
            for g in schedule:
                self._queues[g.worker].append(Assignment(by_id[g.chunk_id], g.victim))

        #: the run's recorded schedule: every grant of a live
        #: incarnation, in grant order
        self.trace = ScheduleTrace()
        self.steals = 0
        self.steals_by_worker: List[int] = [0] * n
        #: re-grants of reclaimed chunks, per worker
        self.retries_by_worker: List[int] = [0] * n
        #: chunks returned to the pool by :meth:`reclaim`, total
        self.chunks_reclaimed = 0
        #: worker -> {chunk_id: chunk} granted and not yet posted, in
        #: grant order: what a death of the worker loses
        self._held: List[Dict[int, Chunk]] = [{} for _ in range(n)]
        self._posted: List[bool] = [False] * n
        #: chunk ids that went back to the pool at least once
        self._reclaimed_ids: Set[int] = set()
        # One lock over every ledger: a reclaim on the recovery path
        # and grants served to other ranks' threads never interleave.
        self._lock = threading.RLock()

    # -- dispatch ----------------------------------------------------------
    def request(self, worker: int) -> Optional[Assignment]:
        """The worker's next chunk (with its victim rank), or None when
        the worker is done.  Thread-safe; grant order is total."""
        if not 0 <= worker < self.n_workers:
            raise ValueError(f"worker {worker} out of range")
        with self._lock:
            answer = self._next_for(worker)
            if answer is not None and self.obs.enabled:
                self._record_grant(worker, answer)
            return answer

    def _next_for(self, worker: int) -> Optional[Assignment]:
        q = self._queues[worker]
        if self.replaying:
            return self._grant(worker, *q.popleft()) if q else None
        if q:
            return self._grant(worker, q.popleft(), worker)
        if not self.enable_stealing:
            return None
        victim = max(range(self.n_workers), key=lambda w: len(self._queues[w]))
        if len(self._queues[victim]) < self.MIN_VICTIM_QUEUE:
            return None
        # Steal from the tail: the victim is about to work the head.
        return self._grant(worker, self._queues[victim].pop(), victim)

    def _grant(self, worker: int, chunk: Chunk, victim: int) -> Assignment:
        """Record one grant in every ledger and hand the chunk out."""
        if victim != worker:
            self.steals += 1
            self.steals_by_worker[worker] += 1
        if chunk.index in self._reclaimed_ids:
            self.retries_by_worker[worker] += 1
        self.trace.record(worker, chunk.index, victim)
        self._held[worker][chunk.index] = chunk
        return Assignment(chunk=chunk, victim=victim)

    def _record_grant(self, worker: int, a: Assignment) -> None:
        """Trace one grant (caller holds the lock and checked enabled)."""
        tracer = self.obs.tracer
        metrics = self.obs.metrics
        cid = a.chunk.index
        if a.victim != worker:
            tracer.event("grant", rank=worker, chunk=cid,
                         victim=a.victim, steal=True)
            tracer.event("steal", rank=worker, chunk=cid,
                         victim=a.victim)
            metrics.counter("steals").inc()
        else:
            tracer.event("grant", rank=worker, chunk=cid)
        metrics.counter("chunks_granted").inc()

    # -- ownership / recovery ----------------------------------------------
    def can_recover(self, worker: int) -> bool:
        """Whether a death of ``worker`` right now is recoverable.

        True until the worker posts its shuffle batches: up to that
        point nothing has left its process, so its entire map phase can
        be re-executed.  After posting, peers may already have consumed
        its batches and a silent re-execution could double-count.
        Never true under replay.
        """
        with self._lock:
            return not self.replaying and not self._posted[worker]

    def mark_posted(self, worker: int) -> None:
        """The worker's shuffle batches are on their way: it holds no
        reclaimable grant any more."""
        with self._lock:
            self._posted[worker] = True
            self._held[worker].clear()

    def reclaim(self, worker: int) -> int:
        """Return a dead worker's un-posted grants to the pool.

        Re-queues the lost chunks at the head of the worker's own
        queue, in grant order — its replacement pulls them back first,
        or survivors steal them — and erases the dead incarnation from
        the trace and per-worker ledgers, since none of its map output
        survived.  Returns the number of chunks re-queued.
        """
        with self._lock:
            if self.replaying:
                raise RuntimeError(
                    "cannot reclaim chunks while replaying a recorded "
                    "schedule; recovery would diverge from the trace"
                )
            if self._posted[worker]:
                raise RuntimeError(
                    f"cannot reclaim worker {worker}: it already posted its "
                    "shuffle batches"
                )
            lost = list(self._held[worker].values())
            self._held[worker].clear()
            self._reclaimed_ids.update(c.index for c in lost)
            # Back at the head, in grant order: the replacement pulls
            # the sequence the dead incarnation pulled, so an
            # order-sensitive fold sees the clean run's chunk order.
            self._queues[worker].extendleft(reversed(lost))
            # The dead incarnation mapped nothing durable; drop its
            # grants so the trace stays a grants-every-chunk-once schedule.
            self.trace.grants = [
                g for g in self.trace.grants if g.worker != worker
            ]
            self.steals -= self.steals_by_worker[worker]
            self.steals_by_worker[worker] = 0
            self.retries_by_worker[worker] = 0
            self.chunks_reclaimed += len(lost)
            self.obs.tracer.event("reclaim", rank=worker, requeued=len(lost))
            self.obs.metrics.counter("chunks_reclaimed").inc(len(lost))
            return len(lost)

    # -- ledgers -------------------------------------------------------------
    @property
    def remaining(self) -> int:
        """Chunks (or, under replay, traced grants) not yet handed out."""
        with self._lock:
            return sum(len(q) for q in self._queues)

    def chunk_counts(self) -> List[int]:
        """Chunks granted per worker so far."""
        return self.trace.chunk_counts(self.n_workers)

    def validate_ledgers(self, worker_stats: Iterable) -> None:
        """Cross-check workers' reported ledgers against the grant log.

        The service's trace and the workers' fetch ledgers are written
        independently; they must agree per worker, or the recorded
        trace would not describe the run it came from.  ``worker_stats``
        is any iterable of objects with ``rank`` / ``chunks_mapped`` /
        ``chunks_stolen`` (the backends' ``WorkerStats``).
        """
        where = f" [{self.context}]" if self.context else ""
        counts = self.chunk_counts()
        steals = self.steals_by_worker
        for w in worker_stats:
            if w.chunks_mapped != counts[w.rank]:
                raise RuntimeError(
                    f"chunk ledgers disagree for worker {w.rank}{where}: "
                    f"service granted {counts[w.rank]} chunk(s), worker "
                    f"mapped {w.chunks_mapped}"
                )
            if w.chunks_stolen != steals[w.rank]:
                raise RuntimeError(
                    f"steal ledgers disagree for worker {w.rank}{where}: "
                    f"service granted {steals[w.rank]} steal(s), worker "
                    f"fetched {w.chunks_stolen}"
                )


class JobChunkAuthority:
    """A registry of job-scoped :class:`ChunkService` namespaces.

    No backend and no service uses it: it is kept only for the perf
    ledger, whose ``scheduler.open_close_job_us`` probe
    (``benchmarks/perf/perf_probes.py``) imports and times
    :meth:`open_job` / :meth:`close_job`.  Each job's chunk queues are
    its own, so stealing never crosses a job boundary.  Thread-safe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[str, ChunkService] = {}

    def open_job(
        self, chunks: Sequence[Chunk], n_workers: int, *, job_id: str, **settings
    ) -> ChunkService:
        """Open ``job_id``'s :class:`ChunkService` (``settings`` are its
        keyword arguments).

        Re-opening an id whose chunks are all drained supersedes the old
        namespace (a multi-phase job runs one phase at a time);
        re-opening an id with chunks still in flight is an error — two
        live services under one name would make the registry ambiguous.
        """
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None and existing.remaining > 0:
                raise ValueError(
                    f"job {job_id!r} still has {existing.remaining} chunks "
                    "in flight on this authority; close_job() it before "
                    "reusing the id"
                )
            service = ChunkService(chunks, n_workers, **settings)
            self._jobs[job_id] = service
            return service

    def close_job(self, job_id: str) -> ChunkService:
        """Retire a job's namespace and return its (final) service.

        The service object stays valid for post-run ledger reads
        (``trace``, ``steals``, ...); only the registry entry goes.
        """
        with self._lock:
            return self._jobs.pop(job_id)

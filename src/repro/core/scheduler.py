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
rank loop, the local backend's service thread and the cluster
coordinator's ``CHUNK_REQ`` frames alike.  Replaying a recorded
:class:`ScheduleTrace` is not a second scheduler: the same service
fills its per-worker queues with the trace's grants and serves them
through the same ledger-writing grant path.  :class:`JobChunkAuthority`
keys many jobs' services by job id.
"""

from __future__ import annotations

import threading
import time
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
    "PULL_AHEAD",
    "GRANT_CHUNK",
    "GRANT_DONE",
    "GRANT_RETRY",
    "RETRY",
    "ScheduleGrant",
    "ScheduleTrace",
    "resolve_chunks",
    "distribute_chunks",
]

#: Deterministic initial chunk distributions shared by all backends.
DISTRIBUTIONS = ("round_robin", "single")


#: The pull window beyond the chunk being mapped: a rank keeps this
#: many chunk requests in flight ahead of its map, so the grant
#: round-trip (and the payload materialisation behind it) overlaps map
#: compute — GPMR's one-ahead double buffer.  A protocol constant:
#: :class:`~repro.exec.rank.GrantPuller` pipelines ``1 + PULL_AHEAD``
#: requests and :meth:`ChunkService.request` proves grants mapped on
#: that same count.
PULL_AHEAD = 1


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


class _Retry:
    """Singleton "ask again shortly" answer to a chunk request.

    Returned (only on speculation-enabled runs) to an idle worker while
    other un-posted workers still hold in-flight grants that may age
    into speculative re-execution — ``None`` would end the worker's
    pull loop before the straggler's chunks became stealable.
    """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RETRY"


#: the tri-state pull answer: Assignment | RETRY | None (done)
RETRY = _Retry()

#: status codes of the same answer once it leaves the driver for a
#: rank: every transport ships a ``(status, chunk, victim)`` triple
GRANT_DONE, GRANT_CHUNK, GRANT_RETRY = 0, 1, 2


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
    the *longest* queue, then — with ``speculate_after`` set — a
    duplicate of an aged in-flight grant.  With a recorded ``schedule``
    the queues hold that trace's grants instead, and each worker is
    served its own in trace order, recorded victims included, so steal
    pricing replays identically.  Either way every grant goes through
    :meth:`_grant`, which writes every ledger — the live
    :class:`ScheduleTrace`, the per-worker granted / steal / retry
    counts, and chunk ownership — so any run (sim, serial, local or
    cluster) leaves behind a schedule the other backends can replay
    bit-for-bit.

    Ownership: a granted chunk stays charged to its worker until the
    worker posts its shuffle batches (:meth:`mark_posted`), because
    until then nothing of its map phase has left its process — the unit
    of loss under a worker death is every un-posted grant.
    :meth:`reclaim` returns a dead worker's grants to the pool and
    erases that incarnation from the trace and ledgers, so survivors or
    a respawned replacement re-pull them.  A replay re-issues a
    schedule that already survived its run, and recovery would diverge
    from it: under replay no death is recoverable and :meth:`reclaim`
    refuses.

    Speculation: an idle worker's request may be answered with a
    *duplicate* of a chunk another un-posted worker has held in flight
    for longer than ``speculate_after`` seconds (and one queued chunk is
    then enough to steal, so a straggler's queue drains completely).
    At most two copies of a chunk are live; receivers keep exactly one
    (see :func:`repro.core.dataflow.merge_incoming`), and :attr:`trace`
    keeps only the kept copy's grant, so it still grants every chunk
    exactly once.  Which grants are still in flight is read off the
    :data:`PULL_AHEAD` window (see :meth:`request`); a worker that pulls
    fewer ahead (the sim's faulted ranks, serial) only proves its
    grants mapped later, and only speculation, which those backends
    refuse, reads the split.

    Requests are serialised under a lock: the sim calls :meth:`request`
    from its event loop, the serial backend from its interleaved rank
    loop, the local backend from a driver-side service thread, and the
    cluster coordinator for each ``CHUNK_REQ`` control frame.
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
        speculate_after: Optional[float] = None,
        obs=None,
        job_id: Optional[str] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        n = self.n_workers = int(n_workers)
        self.context = context
        #: namespace this service serves under a multi-job authority;
        #: None for standalone one-shot runs.  When set, every traced
        #: grant/steal/reclaim event carries ``job=<job_id>`` so
        #: interleaved multi-job traces stay attributable.
        self.job_id = job_id
        self._job_kw = {"job": job_id} if job_id is not None else {}
        #: the run's observability bundle; grants/steals/reclaims are
        #: recorded as point events and counters (no-ops when untraced)
        self.obs = obs or NULL_OBS
        self.obs.metrics.gauge("chunks_total").set(len(chunks))
        #: True when grants come from a recorded trace, not live stealing
        self.replaying = schedule is not None
        if self.replaying and speculate_after is not None:
            raise ValueError(
                "speculation cannot run under a replayed schedule; "
                "the trace already fixes every grant"
            )
        self.enable_stealing = enable_stealing
        self.speculate_after = speculate_after
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

        #: every grant as issued, speculation duplicates included
        self.raw_trace = ScheduleTrace()
        self.steals = 0
        self.steals_by_worker: List[int] = [0] * n
        #: grants per worker including speculative losers (what each
        #: worker really mapped — the ledger-validation ground truth)
        self.granted_by_worker: List[int] = [0] * n
        #: re-granted chunks per worker: reclaimed re-grants + duplicates
        self.retries_by_worker: List[int] = [0] * n
        #: chunks returned to the pool by :meth:`reclaim`, total
        self.chunks_reclaimed = 0
        #: worker -> its answers not yet proven consumed, oldest first:
        #: the granted chunk id, or None for a RETRY/done answer
        self._unproven: List[Deque[Optional[int]]] = [deque() for _ in range(n)]
        #: worker -> {chunk_id: (chunk, grant_monotonic)} granted and
        #: *in flight*: not proven mapped yet — the speculation candidates
        self._outstanding: List[Dict[int, Tuple[Chunk, float]]] = [{} for _ in range(n)]
        #: worker -> {chunk_id: chunk} proven mapped but not yet posted —
        #: still reclaimable on death, no longer speculation bait
        self._mapped: List[Dict[int, Chunk]] = [{} for _ in range(n)]
        #: worker -> chunk ids it posted shuffle output for
        self._completed: List[Set[int]] = [set() for _ in range(n)]
        self._posted: List[bool] = [False] * n
        #: chunk_id -> grantee workers, in grant order (len 2 == speculated)
        self._grantees: Dict[int, List[int]] = {}
        #: chunk ids that went back to the pool at least once
        self._reclaimed_ids: Set[int] = set()
        # One lock over every ledger: a reclaim on the recovery path
        # and grants served to other ranks' threads never interleave.
        self._lock = threading.RLock()

    # -- dispatch ----------------------------------------------------------
    def request(self, worker: int):
        """The worker's next chunk (with its victim rank), None when
        the worker is done, or :data:`RETRY` when a speculation-enabled
        run wants the idle worker to ask again shortly.  Thread-safe;
        grant order is total."""
        if not 0 <= worker < self.n_workers:
            raise ValueError(f"worker {worker} out of range")
        with self._lock:
            # A worker's pull loop keeps ``W = 1 + PULL_AHEAD`` requests in
            # flight and tops the window up only after it has mapped
            # what its last answer granted, so its request number
            # ``W + i`` proves every grant among its first ``i`` answers
            # mapped — RETRY/done answers count as answers.  The
            # proven-mapped grants stop being speculation candidates
            # (duplicating finished work is pure waste) but stay
            # reclaimable until the worker posts; answers still unproven
            # may sit unread in the worker's pipeline — a stalled
            # prefetcher's buffered chunk is exactly what speculation
            # must be allowed to duplicate.
            unproven = self._unproven[worker]
            while len(unproven) > PULL_AHEAD:
                cid = unproven.popleft()
                if cid in self._outstanding[worker]:
                    chunk, _granted_at = self._outstanding[worker].pop(cid)
                    self._mapped[worker][cid] = chunk
            answer = self._next_for(worker)
            if isinstance(answer, Assignment):
                unproven.append(answer.chunk.index)
                if self.obs.enabled:
                    self._record_grant(worker, answer)
            else:
                unproven.append(None)
            return answer

    def _next_for(self, worker: int):
        q = self._queues[worker]
        if self.replaying:
            return self._grant(worker, *q.popleft()) if q else None
        if q:
            return self._grant(worker, q.popleft(), worker)
        if not self.enable_stealing:
            return None
        victim = max(range(self.n_workers), key=lambda w: len(self._queues[w]))
        # With speculation armed a single queued chunk is stealable
        # too: a straggler's queue must drain, not just shrink.
        min_queue = 1 if self.speculate_after is not None else self.MIN_VICTIM_QUEUE
        if len(self._queues[victim]) >= min_queue:
            # Steal from the tail: the victim is about to work the head.
            return self._grant(worker, self._queues[victim].pop(), victim)
        if self.speculate_after is None:
            return None
        return self._speculate(worker)

    def _grant(self, worker: int, chunk: Chunk, victim: int) -> Assignment:
        """Record one grant in every ledger and hand the chunk out."""
        if victim != worker:
            self.steals += 1
            self.steals_by_worker[worker] += 1
        self.raw_trace.record(worker, chunk.index, victim)
        self.granted_by_worker[worker] += 1
        grantees = self._grantees.setdefault(chunk.index, [])
        if grantees or chunk.index in self._reclaimed_ids:
            # A duplicate (speculative) copy or a reclaimed re-grant:
            # either way this worker is re-executing lost/late work.
            self.retries_by_worker[worker] += 1
        grantees.append(worker)
        self._outstanding[worker][chunk.index] = (chunk, time.monotonic())
        return Assignment(chunk=chunk, victim=victim)

    def _speculate(self, worker: int):
        """Duplicate the oldest over-age in-flight grant, or RETRY/None.

        Only chunks held by *other, un-posted* workers qualify, each at
        most once (two copies total).  While any such worker still
        holds un-duplicated work the answer is :data:`RETRY` — the
        requester asks again rather than leaving — and only when no
        speculative grant can ever materialise does the worker get its
        final ``None``.
        """
        now = time.monotonic()
        best: Optional[Tuple[float, int, Chunk]] = None
        more_later = False
        for w in range(self.n_workers):
            if w == worker or self._posted[w]:
                continue
            if self._queues[w]:
                more_later = True
            for cid, (chunk, granted_at) in self._outstanding[w].items():
                if len(self._grantees.get(cid, ())) > 1:
                    continue  # already double-granted
                if now - granted_at < self.speculate_after:
                    more_later = True
                    continue
                if best is None or granted_at < best[0]:
                    best = (granted_at, w, chunk)
        if best is not None:
            _, holder, chunk = best
            return self._grant(worker, chunk, holder)
        return RETRY if more_later else None

    def _record_grant(self, worker: int, a: Assignment) -> None:
        """Trace one grant (caller holds the lock and checked enabled)."""
        tracer = self.obs.tracer
        metrics = self.obs.metrics
        cid = a.chunk.index
        # More than one live grantee means this grant is a speculative
        # duplicate of an aged in-flight chunk, not a queue steal.
        if len(self._grantees[cid]) > 1:
            tracer.event("grant", rank=worker, chunk=cid,
                         victim=a.victim, speculative=True, **self._job_kw)
            tracer.event("speculate", rank=worker, chunk=cid,
                         holder=a.victim, **self._job_kw)
            metrics.counter("speculative_grants").inc()
        elif a.victim != worker:
            tracer.event("grant", rank=worker, chunk=cid,
                         victim=a.victim, steal=True, **self._job_kw)
            tracer.event("steal", rank=worker, chunk=cid,
                         victim=a.victim, **self._job_kw)
            metrics.counter("steals").inc()
        else:
            tracer.event("grant", rank=worker, chunk=cid, **self._job_kw)
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
        """The worker's shuffle batches are on their way: its grants
        move from outstanding to completed and it leaves the pool of
        recoverable / speculation-eligible workers."""
        with self._lock:
            self._posted[worker] = True
            self._completed[worker].update(self._mapped[worker])
            self._completed[worker].update(self._outstanding[worker])
            self._mapped[worker].clear()
            self._outstanding[worker].clear()

    def reclaim(self, worker: int) -> int:
        """Return a dead worker's un-posted grants to the pool.

        Re-queues the lost chunks at the head of the worker's own
        queue, in grant order — its replacement pulls them back first,
        or survivors steal them — and erases the dead incarnation from
        the trace and per-worker ledgers, since none of its map output
        survived.
        Chunks that also have a live speculative copy elsewhere are
        *not* re-queued (the surviving copy covers them).  Returns the
        number of chunks re-queued.
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
            lost = list(self._mapped[worker].values()) + [
                chunk for chunk, _t in self._outstanding[worker].values()
            ]
            self._mapped[worker].clear()
            self._outstanding[worker].clear()
            # The replacement incarnation opens a fresh pull window.
            self._unproven[worker].clear()
            requeue = []
            for chunk in lost:
                grantees = self._grantees.get(chunk.index, [])
                if worker in grantees:
                    grantees.remove(worker)
                self._reclaimed_ids.add(chunk.index)
                if not grantees:  # else a speculative copy is in flight
                    requeue.append(chunk)
            # Back at the head, in grant order: the replacement pulls
            # the sequence the dead incarnation pulled, so an
            # order-sensitive fold sees the clean run's chunk order.
            self._queues[worker].extendleft(reversed(requeue))
            requeued = len(requeue)
            # The dead incarnation mapped nothing durable; drop its
            # grants so the trace stays a grants-every-chunk-once schedule.
            self.raw_trace.grants = [
                g for g in self.raw_trace.grants if g.worker != worker
            ]
            self.steals -= self.steals_by_worker[worker]
            self.steals_by_worker[worker] = 0
            self.granted_by_worker[worker] = 0
            self.retries_by_worker[worker] = 0
            self.chunks_reclaimed += requeued
            self.obs.tracer.event("reclaim", rank=worker,
                                  requeued=requeued, **self._job_kw)
            self.obs.metrics.counter("chunks_reclaimed").inc(requeued)
            return requeued

    # -- speculation outcome -------------------------------------------------
    def _winners(self) -> Dict[int, int]:
        """chunk_id -> kept worker, for every double-granted chunk.

        The kept copy is the first in canonical source-major order
        among grantees that completed — exactly the copy
        :func:`repro.core.dataflow.merge_incoming` keeps at the
        reducers, so the effective trace and the data agree.
        """
        winners: Dict[int, int] = {}
        for cid, grantees in self._grantees.items():
            if len(grantees) < 2:
                continue
            completers = [w for w in grantees if cid in self._completed[w]]
            winners[cid] = min(completers if completers else grantees)
        return winners

    @property
    def speculative_wins(self) -> int:
        """Speculated chunks whose *duplicate* copy is the kept one."""
        return sum(
            winner != self._grantees[cid][0]
            for cid, winner in self._winners().items()
        )

    def record_outcomes(self) -> None:
        """Trace end-of-run speculation outcomes (no-op when untraced).

        Emits one ``speculation_win``/``speculation_loss`` event per
        double-granted chunk, attributed to the kept copy's rank —
        known only once the run completes, hence recorded here rather
        than at grant time.  Executors call this right before they
        build :class:`~repro.core.stats.JobStats`.
        """
        if not self.obs.enabled:
            return
        with self._lock:
            for cid, winner in self._winners().items():
                name = ("speculation_win" if winner != self._grantees[cid][0]
                        else "speculation_loss")
                self.obs.tracer.event(name, rank=winner, chunk=cid,
                                      **self._job_kw)

    # -- ledgers -------------------------------------------------------------
    @property
    def trace(self) -> ScheduleTrace:
        """The run's recorded schedule: every chunk granted exactly
        once (speculation losers filtered, reclaimed incarnations
        erased) — the replayable effective schedule."""
        winners = self._winners()
        if not winners:
            return self.raw_trace
        return ScheduleTrace(
            g for g in self.raw_trace.grants
            if g.chunk_id not in winners or g.worker == winners[g.chunk_id]
        )

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
        # The granted ledger, not the effective trace: a speculation
        # loser really mapped its duplicate chunk even though the
        # effective schedule drops that grant.
        counts = self.granted_by_worker
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
    """One pull front over many concurrent jobs' chunk queues.

    The job service (:mod:`repro.service`) runs many jobs at once, each
    with its own chunks, workers, and schedule — but operators want one
    place to see and manage all in-flight chunk state.  The authority
    is that place: a registry of *job-scoped* :class:`ChunkService`
    namespaces keyed by ``job_id``.  A pool-managed executor whose
    :attr:`~repro.core.executor.Executor.chunk_authority` is set routes
    its run's service construction here (see
    :meth:`~repro.core.executor.Executor._make_chunk_service`), so the
    daemon can enumerate :attr:`active_jobs`, inspect a job's
    :attr:`~ChunkService.remaining` count mid-flight, and retire its
    queues with :meth:`close_job` once results are collected.

    Chunk queues are deliberately *not* shared between jobs: stealing
    never crosses a job boundary (a thief finishing job A's queue must
    not drain job B's), which is exactly what per-job namespaces give
    us for free while keeping every existing parity/replay contract
    per job.  Thread-safe: open/close/get may race with job-runner
    threads.
    """

    def __init__(self, obs=None) -> None:
        self.obs = obs or NULL_OBS
        self._lock = threading.Lock()
        self._jobs: Dict[str, ChunkService] = {}
        self._seq = 0

    def open_job(
        self,
        chunks: Sequence[Chunk],
        n_workers: int,
        *,
        job_id: Optional[str] = None,
        initial_distribution: str = "round_robin",
        enable_stealing: bool = True,
        schedule: Optional[ScheduleTrace] = None,
        context: Optional[str] = None,
        speculate_after: Optional[float] = None,
        obs=None,
    ) -> ChunkService:
        """Open a job-scoped :class:`ChunkService` namespace.

        ``job_id`` defaults to a fresh ``job<N>`` when the caller has
        none.  Re-opening an id whose chunks are all drained supersedes
        the old namespace (multi-phase apps like MM run several
        ``ex.run`` calls under one job id, one phase at a time);
        re-opening an id with chunks still in flight is an error — two
        live services under one name would make the registry ambiguous.
        """
        with self._lock:
            if job_id is None:
                self._seq += 1
                job_id = f"job{self._seq}"
            existing = self._jobs.get(job_id)
            if existing is not None and existing.remaining > 0:
                raise ValueError(
                    f"job {job_id!r} still has {existing.remaining} chunks "
                    "in flight on this authority; close_job() it before "
                    "reusing the id"
                )
            service = ChunkService(
                chunks,
                n_workers,
                initial_distribution=initial_distribution,
                enable_stealing=enable_stealing,
                schedule=schedule,
                context=context,
                speculate_after=speculate_after,
                obs=obs,
                job_id=job_id,
            )
            self._jobs[job_id] = service
            self.obs.metrics.counter("jobs_opened").inc()
            self.obs.metrics.gauge("jobs_active").set(len(self._jobs))
            return service

    def get(self, job_id: str) -> ChunkService:
        """The live service for ``job_id`` (KeyError when not open)."""
        with self._lock:
            return self._jobs[job_id]

    def close_job(self, job_id: str) -> ChunkService:
        """Retire a job's namespace and return its (final) service.

        The service object stays valid for post-run ledger reads
        (``trace``, ``steals``, ...); only the registry entry goes.
        """
        with self._lock:
            service = self._jobs.pop(job_id)
            self.obs.metrics.gauge("jobs_active").set(len(self._jobs))
            return service

    @property
    def active_jobs(self) -> Tuple[str, ...]:
        """Ids of jobs with live chunk namespaces, sorted."""
        with self._lock:
            return tuple(sorted(self._jobs))

    @property
    def remaining(self) -> int:
        """Undelivered chunks across every open job."""
        with self._lock:
            return sum(s.remaining for s in self._jobs.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JobChunkAuthority jobs={len(self._jobs)}>"

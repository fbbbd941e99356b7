"""Property-style tests of the grant ledger and schedule replay.

:class:`ChunkService`'s invariants (longest-queue-first victims, the
steal threshold, ledger accuracy, exhaustion) are checked over many
randomized queue shapes, and the record/replay contract is pinned:
a recorded :class:`ScheduleTrace` replayed through
``ChunkService(schedule=...)`` must reproduce the grant sequence
exactly — same workers, same chunks, same victims, same steal ledgers.
"""

import random
import threading

import pytest

from repro.core import (
    Chunk,
    ChunkService,
    ScheduleGrant,
    ScheduleTrace,
    WorkerStats,
)


def make_chunks(n, start=0):
    return [
        Chunk(index=start + i, data=None, logical_items=1, logical_bytes=8)
        for i in range(n)
    ]


def _grants_of(trace, worker):
    """``worker``'s grants in ``trace``, in its map order."""
    return [g for g in trace.grants if g.worker == worker]


def loaded(queues, **kw):
    """A live service whose worker ``w`` starts with ``queues[w]`` queued."""
    svc = ChunkService([], len(queues), **kw)
    for q, chunks in zip(svc._queues, queues):
        q.extend(chunks)
    return svc


def queue_len(svc, worker):
    return len(svc._queues[worker])


def outstanding(svc, worker):
    """Chunk ids granted to ``worker`` and not yet posted, in grant order."""
    return list(svc._held[worker])


def drain(scheduler, n_workers, order=None):
    """Drive workers until every request returns None; returns grants.

    ``order`` is the request schedule: a sequence of worker ranks that
    keep requesting in round-robin rotation until all are exhausted.
    """
    ranks = list(order if order is not None else range(n_workers))
    grants = []
    done = set()
    while len(done) < len(ranks):
        for w in ranks:
            if w in done:
                continue
            a = scheduler.request(w)
            if a is None:
                done.add(w)
            else:
                grants.append((w, a))
    return grants


# -- dynamic scheduler invariants --------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_steal_always_takes_the_longest_queue(seed):
    """Whenever an idle worker steals, the victim had (one of) the
    longest queues at that moment, and was at/above the threshold."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    queues, next_id = [], 0
    for w in range(n):
        queues.append(make_chunks(rng.randint(0, 8), start=next_id))
        next_id += len(queues[-1])
    s = loaded(queues)

    thief = rng.randrange(n)
    while queue_len(s, thief):  # make the thief idle first
        s.request(thief)
    lengths_before = [queue_len(s, w) for w in range(n)]
    a = s.request(thief)
    if a is None:
        # No steal possible: every queue was under the threshold.
        assert max(lengths_before) < ChunkService.MIN_VICTIM_QUEUE
    else:
        assert a.stolen_by(thief)
        assert lengths_before[a.victim] == max(lengths_before)
        assert lengths_before[a.victim] >= ChunkService.MIN_VICTIM_QUEUE


@pytest.mark.parametrize("seed", range(10))
def test_steals_ledger_accuracy_and_exhaustion_with_stealing(seed):
    """Random drains: every chunk granted exactly once, the global and
    per-worker steal counters equal the stolen assignments observed,
    and the recorded trace mirrors the grants one-for-one."""
    rng = random.Random(100 + seed)
    n = rng.randint(2, 5)
    chunks = make_chunks(rng.randint(1, 24))
    s = ChunkService(
        chunks, n, initial_distribution=rng.choice(("round_robin", "single"))
    )

    order = list(range(n))
    rng.shuffle(order)
    grants = drain(s, n, order)

    granted_ids = [a.chunk.index for _, a in grants]
    assert sorted(granted_ids) == [c.index for c in chunks]
    assert s.remaining == 0

    observed_steals = [0] * n
    for w, a in grants:
        if a.stolen_by(w):
            observed_steals[w] += 1
    assert s.steals == sum(observed_steals)
    assert s.steals_by_worker == observed_steals

    # The trace is the grant log, verbatim.
    assert [(g.worker, g.chunk_id, g.was_steal, g.victim) for g in s.trace] == [
        (w, a.chunk.index, a.stolen_by(w), a.victim) for w, a in grants
    ]
    assert s.trace.total_steals == s.steals
    assert s.trace.steals_by_worker(n) == observed_steals
    assert sum(s.trace.chunk_counts(n)) == len(chunks)


def test_exhaustion_without_stealing_strands_remote_queues():
    """With stealing off, a worker drains only its own queue: an idle
    worker gets None even while peers still hold work."""
    # everything on worker 0
    s = ChunkService(make_chunks(6), 2, initial_distribution="single", enable_stealing=False)
    assert s.request(1) is None
    assert queue_len(s, 0) == 6
    for _ in range(6):
        assert s.request(0) is not None
    assert s.request(0) is None
    assert s.steals == 0
    assert s.steals_by_worker == [0, 0]
    assert len(s.trace) == 6 and s.trace.total_steals == 0


def test_threshold_leaves_last_chunks_unstolen():
    """A victim holding fewer than MIN_VICTIM_QUEUE chunks is not
    robbed, so its final chunk is always its own."""
    s = loaded([make_chunks(1), []])
    assert s.request(1) is None  # below threshold: no steal
    a = s.request(0)
    assert a is not None and not a.stolen_by(0)


# -- record -> replay round-trip ----------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_trace_round_trip_replays_identical_grant_order(seed):
    """record -> replay: the replaying service re-issues the exact grant
    sequence per worker (chunks, victims, steal flags) and ends with
    the same ledgers."""
    rng = random.Random(200 + seed)
    n = rng.randint(2, 5)
    chunks = make_chunks(rng.randint(2, 20))
    recorder = ChunkService(
        chunks, n, initial_distribution=rng.choice(("round_robin", "single"))
    )
    order = list(range(n))
    rng.shuffle(order)
    drain(recorder, n, order)

    replayer = ChunkService(chunks, n, schedule=recorder.trace)
    # A different request interleaving must not change per-worker order.
    rng.shuffle(order)
    drain(replayer, n, order)

    for w in range(n):
        assert _grants_of(replayer.trace, w) == _grants_of(recorder.trace, w)
    assert replayer.steals == recorder.steals
    assert replayer.steals_by_worker == recorder.steals_by_worker
    assert replayer.remaining == 0


def test_trace_wire_round_trip():
    trace = ScheduleTrace()
    trace.record(0, 7, 0)
    trace.record(1, 3, 0)  # a steal from worker 0
    records = trace.to_records()
    assert records == [(0, 7, False, 0), (1, 3, True, 0)]
    assert ScheduleTrace.from_records(records) == trace
    assert ScheduleTrace.from_records(records).grants[1] == ScheduleGrant(
        worker=1, chunk_id=3, was_steal=True, victim=0
    )


def test_replay_rejects_wrong_chunk_sets():
    chunks = make_chunks(3)
    recorder = ChunkService(chunks, 2)
    drain(recorder, 2)
    trace = recorder.trace

    with pytest.raises(ValueError, match="does not cover"):
        ChunkService(make_chunks(4), 2, schedule=trace)
    with pytest.raises(ValueError, match="not in the job"):
        ChunkService(make_chunks(3, start=100), 2, schedule=trace)
    with pytest.raises(ValueError, match="unique"):
        ChunkService(make_chunks(3) + [make_chunks(1)[0]], 2, schedule=trace)

    bad_rank = ScheduleTrace.from_records([(5, 0, False, 5)])
    with pytest.raises(ValueError, match="outside"):
        ChunkService(make_chunks(1), 2, schedule=bad_rank)
    bad_flag = ScheduleTrace.from_records([(0, 0, True, 0)])
    with pytest.raises(ValueError, match="inconsistent steal flag"):
        ChunkService(make_chunks(1), 2, schedule=bad_flag)
    twice = ScheduleTrace.from_records([(0, 0, False, 0), (1, 0, True, 0)])
    with pytest.raises(ValueError, match="twice"):
        ChunkService(make_chunks(1), 2, schedule=twice)


def test_replay_rejects_out_of_range_workers():
    trace = ScheduleTrace.from_records([(0, 0, False, 0)])
    r = ChunkService(make_chunks(1), 1, schedule=trace)
    with pytest.raises(ValueError, match="out of range"):
        r.request(9)
    with pytest.raises(ValueError, match=">= 1"):
        ChunkService(make_chunks(1), 0, schedule=trace)


def test_replay_errors_name_context_and_grant_index():
    """Satellite: a trace/backend mismatch is debuggable from the
    message alone — app/phase context plus the offending grant index."""
    bad_rank = ScheduleTrace.from_records([(0, 0, False, 0), (5, 1, False, 5)])
    with pytest.raises(ValueError, match="matmul-phase1"):
        ChunkService(make_chunks(2), 2, schedule=bad_rank, context="matmul-phase1")
    with pytest.raises(ValueError, match=r"grant #1 .* outside 0\.\.1"):
        ChunkService(make_chunks(2), 2, schedule=bad_rank, context="matmul-phase1")

    twice = ScheduleTrace.from_records(
        [(0, 0, False, 0), (1, 1, True, 0), (1, 0, True, 0)]
    )
    with pytest.raises(
        ValueError,
        match=r"replaying schedule for wo: trace grant #2 grants chunk 0 "
        r"twice \(first granted by grant #0\)",
    ):
        ChunkService(make_chunks(2), 2, schedule=twice, context="wo")

    missing = ScheduleTrace.from_records([(0, 0, False, 0)])
    with pytest.raises(ValueError, match=r"sio.*does not cover chunk\(s\) \[1\]"):
        ChunkService(make_chunks(2), 2, schedule=missing, context="sio")


# -- chunk service (the pull server every backend shares) ---------------------

def _drain_service(svc, n_workers):
    """Round-robin pull until every worker is told it is done."""
    grants = []
    active = set(range(n_workers))
    while active:
        for w in range(n_workers):
            if w not in active:
                continue
            a = svc.request(w)
            if a is None:
                active.discard(w)
            else:
                grants.append((w, a))
    return grants


def test_chunk_service_native_pull_covers_all_chunks_with_steals():
    chunks = make_chunks(9)
    svc = ChunkService(chunks, 3, initial_distribution="single")
    grants = _drain_service(svc, 3)
    assert sorted(a.chunk.index for _, a in grants) == list(range(9))
    assert svc.remaining == 0
    # Everything started on worker 0, so the interleaved pull steals.
    assert svc.steals > 0
    assert svc.trace.total_steals == svc.steals
    assert sum(svc.chunk_counts()) == 9
    observed = [0, 0, 0]
    for w, a in grants:
        if a.stolen_by(w):
            observed[w] += 1
    assert svc.steals_by_worker == observed


def test_chunk_service_stealing_off_strands_remote_queues():
    svc = ChunkService(
        make_chunks(4), 2, initial_distribution="single",
        enable_stealing=False,
    )
    assert svc.request(1) is None
    assert all(svc.request(0) is not None for _ in range(4))
    assert svc.steals == 0


def test_chunk_service_replay_reissues_the_trace():
    chunks = make_chunks(8)
    recorder = ChunkService(chunks, 3, initial_distribution="single")
    _drain_service(recorder, 3)
    svc = ChunkService(chunks, 3, schedule=recorder.trace, context="sio")
    assert svc.replaying
    _drain_service(svc, 3)
    assert svc.steals_by_worker == recorder.steals_by_worker
    assert svc.chunk_counts() == recorder.chunk_counts()


def test_chunk_service_concurrent_pulls_grant_each_chunk_once():
    """The local/cluster drivers answer pulls from service threads; a
    storm of concurrent requesters must still see every chunk granted
    exactly once with accurate ledgers."""
    chunks = make_chunks(60)
    svc = ChunkService(chunks, 4, initial_distribution="single")
    got = [[] for _ in range(4)]

    def _pull(worker):
        while True:
            a = svc.request(worker)
            if a is None:
                return
            got[worker].append(a)

    threads = [
        threading.Thread(target=_pull, args=(w,), daemon=True)
        for w in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    granted = [a.chunk.index for per in got for a in per]
    assert sorted(granted) == list(range(60))
    assert svc.chunk_counts() == [len(per) for per in got]
    assert svc.steals_by_worker == [
        sum(1 for a in per if a.stolen_by(w)) for w, per in enumerate(got)
    ]


def test_chunk_service_validate_ledgers_catches_disagreement():
    chunks = make_chunks(4)
    svc = ChunkService(chunks, 2, context="sio")
    _drain_service(svc, 2)
    good = []
    for rank in range(2):
        w = WorkerStats(rank=rank)
        w.chunks_mapped = svc.chunk_counts()[rank]
        w.chunks_stolen = svc.steals_by_worker[rank]
        good.append(w)
    svc.validate_ledgers(good)  # agreeing ledgers pass

    bad_count = WorkerStats(rank=0)
    bad_count.chunks_mapped = good[0].chunks_mapped + 1
    bad_count.chunks_stolen = good[0].chunks_stolen
    with pytest.raises(RuntimeError, match=r"chunk ledgers disagree.*\[sio\]"):
        svc.validate_ledgers([bad_count])

    bad_steal = WorkerStats(rank=1)
    bad_steal.chunks_mapped = good[1].chunks_mapped
    bad_steal.chunks_stolen = good[1].chunks_stolen + 1
    with pytest.raises(RuntimeError, match="steal ledgers disagree"):
        svc.validate_ledgers([bad_steal])


def test_replay_service_distribution_matches_trace():
    """Record -> replay through the pull service: each worker's grant
    sequence splits the chunk set exactly as the trace dictates, steal
    ledger included."""
    chunks = make_chunks(8)
    recorder = ChunkService(chunks, 3, initial_distribution="single")
    drain(recorder, 3)
    svc = ChunkService(chunks, 3, schedule=recorder.trace)
    per_worker = [[] for _ in range(3)]
    for w in range(3):
        while True:
            a = svc.request(w)
            if a is None:
                break
            per_worker[w].append(a.chunk)
    for w in range(3):
        assert [c.index for c in per_worker[w]] == [
            g.chunk_id for g in _grants_of(recorder.trace, w)
        ]
    assert svc.steals_by_worker == recorder.steals_by_worker
    assert sum(len(p) for p in per_worker) == len(chunks)


# -- fault tolerance: reclaim ------------------------------------------------

def test_reclaim_regrants_lost_chunks_exactly_once():
    """A dead worker's un-posted grants return to the pool and are
    re-granted exactly once: the effective trace still grants every
    chunk exactly once, and ``chunks_reclaimed`` counts the loss."""
    chunks = make_chunks(8)
    sched = ChunkService(chunks, 2, initial_distribution="round_robin")
    # Worker 0 pulls twice: both grants are un-posted, both are lost.
    a1 = sched.request(0)
    a2 = sched.request(0)
    lost_ids = {a1.chunk.index, a2.chunk.index}
    assert outstanding(sched, 0) == sorted(lost_ids)
    assert sched.can_recover(0)

    assert sched.reclaim(0) == 2
    assert sched.chunks_reclaimed == 2
    assert outstanding(sched, 0) == []
    # The dead incarnation's grants are erased from the trace.
    assert all(g.worker != 0 or g.chunk_id not in lost_ids
               for g in sched.trace.grants)

    grants = drain(sched, 2)
    granted_ids = [a.chunk.index for _w, a in grants]
    # The lost chunks came back out, and re-grants were flagged retries.
    assert lost_ids <= set(granted_ids)
    assert sum(sched.retries_by_worker) >= 2
    for w in range(2):
        sched.mark_posted(w)
    effective = [g.chunk_id for g in sched.trace.grants]
    assert sorted(effective) == list(range(8))


def test_reclaim_resets_dead_worker_ledgers_for_replacement():
    """After a reclaim the dead rank's ledgers are zeroed, so a fresh
    replacement incarnation's stats validate cleanly end-to-end."""
    chunks = make_chunks(6)
    svc = ChunkService(chunks, 2, initial_distribution="single")
    svc.request(0)
    svc.request(0)
    assert svc.reclaim(0) == 2
    assert svc.chunk_counts()[0] == 0
    assert svc.steals_by_worker[0] == 0
    assert svc.retries_by_worker[0] == 0

    _drain_service(svc, 2)
    stats = []
    for rank in range(2):
        w = WorkerStats(rank=rank)
        w.chunks_mapped = svc.chunk_counts()[rank]
        w.chunks_stolen = svc.steals_by_worker[rank]
        stats.append(w)
    svc.validate_ledgers(stats)
    assert sorted(g.chunk_id for g in svc.trace.grants) == list(range(6))


def test_reclaim_after_mark_posted_raises():
    chunks = make_chunks(2)
    sched = ChunkService(chunks, 1, initial_distribution="single")
    drain(sched, 1)
    sched.mark_posted(0)
    assert not sched.can_recover(0)
    with pytest.raises(RuntimeError, match="already posted"):
        sched.reclaim(0)


def test_replacement_holds_only_its_own_grants():
    """After a reclaim the replacement incarnation re-pulls the lost
    chunks in their grant order and holds exactly what it pulled; every
    re-grant of a reclaimed chunk counts as a retry."""
    chunks = make_chunks(3)
    sched = ChunkService(chunks, 1, initial_distribution="single")
    for _ in range(3):
        sched.request(0)
    assert sched.reclaim(0) == 3
    assert outstanding(sched, 0) == []
    a = sched.request(0)
    b = sched.request(0)
    assert [a.chunk.index, b.chunk.index] == [0, 1]
    assert outstanding(sched, 0) == [0, 1]
    assert sched.retries_by_worker == [2]
    assert [g.chunk_id for g in sched.trace] == [0, 1]


def test_chunk_service_reclaim_during_a_pull_storm_grants_every_chunk_once():
    """A reclaim that races a concurrent pull storm still leaves a
    grant set that covers every chunk exactly once."""
    chunks = make_chunks(40)
    svc = ChunkService(chunks, 3, initial_distribution="single")
    svc.request(0)
    svc.request(0)
    got = [[] for _ in range(3)]

    def _pull(worker):
        while True:
            a = svc.request(worker)
            if a is None:
                return
            got[worker].append(a.chunk.index)

    threads = [threading.Thread(target=_pull, args=(w,), daemon=True)
               for w in (1, 2)]
    for t in threads:
        t.start()
    reclaimed = svc.reclaim(0)
    assert reclaimed == 2
    for t in threads:
        t.join(timeout=10.0)
    _drain_service(svc, 3)
    for w in range(3):
        svc.mark_posted(w)
    assert sorted(g.chunk_id for g in svc.trace.grants) == list(range(40))
    assert svc.chunks_reclaimed == 2

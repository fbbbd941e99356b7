"""Stateful model of the grant ledger (:class:`ChunkService`).

A hypothesis :class:`RuleBasedStateMachine` drives one service through
any interleaving of what ranks do to it:

* **pull** — a worker requests within its ``1 + PULL_AHEAD`` window
  (the answers it has not yet mapped), exactly as the rank-side puller
  does;
* **map** — the worker takes its oldest answer off the window;
* **post** — a worker told "done" with an empty window ships its
  batches (``mark_posted``);
* **die** — an un-posted worker loses every grant of its incarnation
  and the service reclaims them;
* **replay** — a service built from a recorded trace re-issues it.

The model keeps only counts and holders, never the queues, and checks
the service against them after every step: the granted and steal
ledgers agree per worker, a chunk has at most one live holder, and
the trace never grants a chunk twice.  At the end every chunk is granted exactly once, and
``ChunkService(schedule=svc.trace)`` re-issues the same grants.
"""

from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import Chunk, ChunkService, WorkerStats
from repro.core.scheduler import DISTRIBUTIONS
from repro.exec.rank import PULL_AHEAD


def _chunks(n):
    return [Chunk(index=i, data=None, logical_items=1, logical_bytes=8) for i in range(n)]


def _grants_of(trace, worker):
    """``worker``'s grants in ``trace``, in its map order."""
    return [g for g in trace.grants if g.worker == worker]


def _record(chunks, n_workers):
    """A trace with steals: everything starts on rank 0, pulls alternate."""
    svc = ChunkService(chunks, n_workers, initial_distribution="single")
    active = set(range(n_workers))
    while active:
        for w in sorted(active):
            if svc.request(w) is None:
                active.discard(w)
    return svc.trace


def replay_matches(chunks, n_workers, trace):
    """Replaying ``trace`` re-issues its grants, rank by rank."""
    svc = ChunkService(chunks, n_workers, schedule=trace)
    for w in range(n_workers):
        issued = []
        while (a := svc.request(w)) is not None:
            issued.append((w, a.chunk.index, a.stolen_by(w), a.victim))
        assert issued == [tuple(g) for g in _grants_of(trace, w)]
    assert svc.remaining == 0
    assert svc.steals_by_worker == trace.steals_by_worker(n_workers)
    assert sorted(g.chunk_id for g in svc.trace) == sorted(c.index for c in chunks)


class LedgerMachine(RuleBasedStateMachine):
    @initialize(
        n=st.integers(1, 4),
        n_chunks=st.integers(0, 12),
        how=st.sampled_from(DISTRIBUTIONS),
        stealing=st.booleans(),
        replay=st.booleans(),
    )
    def setup(self, n, n_chunks, how, stealing, replay):
        self.n = n
        self.chunks = _chunks(n_chunks)
        self.replayed = _record(self.chunks, n) if replay else None
        if replay:
            self.svc = ChunkService(self.chunks, n, schedule=self.replayed)
            self.expected = [deque(_grants_of(self.replayed, w)) for w in range(n)]
        else:
            self.svc = ChunkService(
                self.chunks, n, initial_distribution=how,
                enable_stealing=stealing,
            )
        #: per worker: answers issued but not yet mapped, oldest first
        self.window = [deque() for _ in range(n)]
        #: per worker: the last answer it mapped was "done"
        self.told_done = [False] * n
        self.posted = [False] * n
        self.granted = [0] * n
        self.steals = [0] * n
        #: chunk id -> live grantees (reclaimed incarnations removed)
        self.holders = {c.index: [] for c in self.chunks}
        self.held_by = [[] for _ in range(n)]
        self.reclaimed = 0

    # -- rules ---------------------------------------------------------------
    def _pull(self, w):
        a = self.svc.request(w)
        self.window[w].append(a)
        if a is None:
            return
        cid = a.chunk.index
        self.holders[cid].append(w)
        self.held_by[w].append(cid)
        self.granted[w] += 1
        self.steals[w] += a.stolen_by(w)
        if self.replayed is not None:
            g = self.expected[w].popleft()
            assert (g.chunk_id, g.victim) == (cid, a.victim)

    @rule(w=st.integers(0, 3))
    def pull(self, w):
        w %= self.n
        if not self.posted[w] and len(self.window[w]) < 1 + PULL_AHEAD:
            self._pull(w)

    @rule(w=st.integers(0, 3))
    def map_oldest(self, w):
        w %= self.n
        if self.window[w]:
            self.told_done[w] = self.window[w].popleft() is None

    @rule(w=st.integers(0, 3))
    def post(self, w):
        w %= self.n
        if not self.posted[w] and self.told_done[w] and not self.window[w]:
            self.svc.mark_posted(w)
            self.posted[w] = True

    @rule(w=st.integers(0, 3))
    def die(self, w):
        w %= self.n
        if self.posted[w]:
            return
        if self.replayed is not None:
            assert not self.svc.can_recover(w)
            with pytest.raises(RuntimeError, match="replaying"):
                self.svc.reclaim(w)
            return
        assert self.svc.can_recover(w)
        for cid in self.held_by[w]:
            self.holders[cid].remove(w)
        requeue = len(self.held_by[w])
        assert self.svc.reclaim(w) == requeue
        self.reclaimed += requeue
        self.held_by[w] = []
        self.window[w].clear()
        self.told_done[w] = False
        self.granted[w] = self.steals[w] = 0

    @precondition(lambda self: all(self.posted))
    @rule()
    def replay(self):
        replay_matches(self.chunks, self.n, self.svc.trace)

    # -- invariants ----------------------------------------------------------
    @invariant()
    def ledgers_agree(self):
        stats = []
        for w in range(self.n):
            s = WorkerStats(rank=w)
            s.chunks_mapped, s.chunks_stolen = self.granted[w], self.steals[w]
            stats.append(s)
        self.svc.validate_ledgers(stats)
        assert self.svc.steals_by_worker == self.steals
        assert self.svc.chunks_reclaimed == self.reclaimed

    @invariant()
    def at_most_one_live_holder_per_chunk(self):
        assert all(len(h) <= 1 for h in self.holders.values())

    @invariant()
    def trace_grants_each_chunk_at_most_once(self):
        ids = [g.chunk_id for g in self.svc.trace]
        assert len(ids) == len(set(ids))

    def teardown(self):
        # Finish the run with the ranks taking turns, one step each.
        while not all(self.posted):
            for w in range(self.n):
                if self.posted[w]:
                    continue
                while self.window[w]:
                    self.map_oldest(w)
                if self.told_done[w]:
                    self.post(w)
                else:
                    self._pull(w)
        self.ledgers_agree()
        assert self.svc.remaining == 0
        assert sorted(g.chunk_id for g in self.svc.trace) == [c.index for c in self.chunks]
        replay_matches(self.chunks, self.n, self.svc.trace)


TestLedgerModel = LedgerMachine.TestCase
TestLedgerModel.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)

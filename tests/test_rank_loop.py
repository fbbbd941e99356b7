"""The shared rank loop: ``GrantPuller``, ``RankRun``, ``drive_rank``.

These are the pieces every real backend runs (``repro.exec.rank``), so
they are tested once, here, against scripted transports:

* :class:`GrantPuller` against a scripted answer list — the pipelined
  pull state machine (window, drain-after-DONE, kill ordinal, one
  ``grant_wait`` record per answer);
* :func:`drive_rank` against an in-memory fake link — the failure
  courtesy;
* the three real backends report the same stage buckets and span names
  for the same job;
* the pre-flight is one rule on every backend.
"""

from collections import deque

import numpy as np
import pytest

from repro.apps.sparse_int_occurrence import sio_dataset, sio_job, sio_validate
from repro.core import (
    FaultPlan,
    Mapper,
    MapReduceJob,
    make_executor,
)
from repro.core.kvset import KeyValueSet
from repro.core.scheduler import resolve_chunks
from repro.core.scheduler import GRANT_CHUNK, GRANT_DONE
from repro.exec import rank as rank_mod
from repro.exec.rank import PULL_AHEAD, GrantPuller, drive_rank
from repro.obs import NULL_OBS, Observability

DONE = (GRANT_DONE, None, -1)


def _grant(chunk, victim=0):
    return (GRANT_CHUNK, chunk, victim)


# -- GrantPuller against a scripted answer list -------------------------------

class _Script:
    """A service that answers from a fixed list, one per request."""

    def __init__(self, answers):
        self.answers = deque(answers)
        self.sent = 0
        self.received = 0

    def send(self):
        self.sent += 1

    def recv(self):
        assert self.sent > self.received, "read an answer nobody asked for"
        self.received += 1
        return self.answers.popleft()

    @property
    def unanswered(self):
        return self.sent - self.received


def _pull_all(puller):
    got = []
    while True:
        nxt = puller.next()
        if nxt is None:
            return got
        got.append(nxt[0])


def test_puller_returns_none_only_with_nothing_unanswered():
    """Every request posted is answered and read before the pull ends
    — an unread grant would strand a chunk the service considers
    delivered."""
    script = _Script(
        [_grant("a"), _grant("b"), _grant("c"), *([DONE] * (1 + PULL_AHEAD))]
    )
    puller = GrantPuller(0, script.send, script.recv)
    assert _pull_all(puller) == ["a", "b", "c"]
    assert script.unanswered == 0
    assert not script.answers  # and it asked exactly as often as needed


def test_chunk_behind_a_done_resumes_the_pull():
    """A pipelined answer behind a DONE may still be a chunk (a reclaim
    freed it): it is mapped, and the window re-opens."""
    script = _Script([_grant("a"), DONE, _grant("late"), DONE, DONE])
    puller = GrantPuller(0, script.send, script.recv)
    assert _pull_all(puller) == ["a", "late"]
    assert script.unanswered == 0 and not script.answers


def test_kill_ordinal_fires_on_receipt_of_the_nth_grant(monkeypatch):
    """The scripted death happens on *receiving* grant n — before it is
    handed to the mapper — and non-grant answers do not count."""
    kills = []
    monkeypatch.setattr(
        rank_mod.os, "kill", lambda pid, sig: kills.append(sig)
    )
    script = _Script([_grant("a"), DONE, _grant("b"), _grant("c"), DONE])
    puller = GrantPuller(0, script.send, script.recv, kill_at_chunk=2)
    assert puller.next()[0] == "a"
    assert not kills
    puller.next()
    assert kills == [rank_mod.signal.SIGKILL]


def test_grant_wait_recorded_once_per_answer():
    obs = Observability()
    answers = [_grant("a"), DONE, _grant("b"), DONE, DONE]
    script = _Script(answers)
    puller = GrantPuller(3, script.send, script.recv, obs=obs)
    _pull_all(puller)
    waits = [r for r in obs.tracer.records if r["name"] == "grant_wait"]
    assert len(waits) == len(answers)
    assert all(r["rank"] == 3 for r in waits)
    hist = obs.metrics.snapshot()["histograms"]["grant_latency_s"]
    assert hist["count"] == len(answers)


# -- drive_rank against scripted links ----------------------------------------

N_RANKS = 3


def _job_and_chunks():
    ds = sio_dataset(6_000, chunk_elements=2_000, key_space=1 << 12, seed=3)
    job = sio_job(key_space=1 << 12).with_config(enable_stealing=False)
    return job, resolve_chunks(ds, None)


class _FakeLink:
    """An in-memory link: records every call, ships nothing."""

    def __init__(self, job, grants, inbound=(), fail_send_to=None):
        self.rank = 0
        self.n_workers = N_RANKS
        self.obs = NULL_OBS
        self.job = job
        self._grants = deque(grants)
        self._inbound = list(inbound)
        self._fail_send_to = fail_send_to
        self.calls = []
        self.sent = {}
        self.unblocked = []
        self.reports = []

    def open(self):
        return self.job

    def request_chunk(self):
        return self._grants.popleft() if self._grants else None

    def mark_posted(self):
        self.calls.append("mark_posted")

    def send(self, dest, parts, chunk_ids):
        self.calls.append(f"send:{dest}")
        if dest == self._fail_send_to:
            raise RuntimeError("pipe burst")
        self.sent[dest] = (parts, chunk_ids)

    def unblock(self, dest):
        self.unblocked.append(dest)

    def recv_all(self):
        self.calls.append("recv_all")
        return self._inbound

    def report(self, output, stats, error):
        self.reports.append((output, stats, error))


def test_happy_path_order_and_report():
    job, chunks = _job_and_chunks()
    peer_part = KeyValueSet(keys=np.arange(4, dtype=np.uint32), values=np.ones(4))
    link = _FakeLink(
        job,
        [(chunks[0], 0), (chunks[1], 1)],
        inbound=[(2, [peer_part], [9]), (1, [], [])],
    )
    drive_rank(link)
    # posted is announced before the first batch leaves
    assert link.calls == ["mark_posted", "send:1", "send:2", "recv_all"]
    assert not link.unblocked
    (output, stats, error), = link.reports
    assert error is None and output is not None
    assert stats.chunks_mapped == 2 and stats.chunks_stolen == 1
    assert set(stats.stage_seconds) == {"map", "bin", "sort", "reduce"}
    # every sent part carries its provenance tag
    for parts, tags in link.sent.values():
        assert len(parts) == len(tags)


def test_ranks_send_in_staggered_order():
    """Rank r sends to r+1, r+2, ... (mod n), so at each step every
    inbox receives one batch instead of all ranks queueing at rank 0."""
    job, chunks = _job_and_chunks()
    link = _FakeLink(job, [(chunks[0], 1)], inbound=[(0, [], []), (2, [], [])])
    link.rank = 1
    drive_rank(link)
    assert link.calls == ["mark_posted", "send:2", "send:0", "recv_all"]
    (_output, _stats, error), = link.reports
    assert error is None


class _ExplodingMapper(Mapper):
    def map_chunk(self, chunk):
        raise ValueError("bad chunk")

    def map_cost(self, chunk):  # pragma: no cover - never priced
        return []


def test_failure_before_posting_unblocks_every_peer_exactly_once():
    _job, chunks = _job_and_chunks()
    job = MapReduceJob(name="boom", mapper=_ExplodingMapper())
    link = _FakeLink(job, [(chunks[0], 0)])
    drive_rank(link)
    assert link.calls == []           # never posted, never sent
    assert link.unblocked == [1, 2]
    (output, _stats, error), = link.reports
    assert output is None and "bad chunk" in error


def test_handshake_failure_takes_the_same_courtesy_path():
    """A link whose ``open()`` raises (a bad ASSIGN, a job that does
    not unpickle) is reported and its peers unblocked exactly like a failed map."""
    link = _FakeLink(None, [])
    link.open = lambda: (_ for _ in ()).throw(RuntimeError("no assignment"))
    drive_rank(link)
    assert link.calls == [] and link.unblocked == [1, 2]
    (output, stats, error), = link.reports
    assert output is None and stats.rank == 0 and "no assignment" in error


def test_mid_posting_failure_backfills_only_unserved_peers_fake_link():
    job, chunks = _job_and_chunks()
    link = _FakeLink(job, [(chunks[0], 0)], fail_send_to=2)
    drive_rank(link)
    assert list(link.sent) == [1]
    assert link.unblocked == [2]      # never the already-served rank 1
    (_output, _stats, error), = link.reports
    assert "pipe burst" in error


# -- one loop: the backends agree on what they record -------------------------

#: spans the rank loop itself records, on every backend
RANK_SPANS = {
    "grant_wait", "chunk_map", "map_finish", "shuffle_recv", "sort", "reduce",
}
#: spans a transport adds on top (``result_recv`` is the driver's)
LINK_SPANS = {
    "serial": set(),
    "local": {"shuffle_send", "result_recv"},
    "cluster": {"shuffle_send", "result_recv"},
}


def test_backends_report_the_same_buckets_and_span_names():
    ds = sio_dataset(24_000, chunk_elements=3_000, key_space=1 << 12, seed=5)
    job = sio_job(ds.key_space)
    for backend, extra in LINK_SPANS.items():
        obs = Observability()
        result = make_executor(backend, 2, obs=obs).run(job, dataset=ds)
        sio_validate(result, ds)
        for w in result.stats.workers:
            assert set(w.stage_seconds) == {"map", "bin", "sort", "reduce"}, backend
        spans = {r["name"] for r in obs.tracer.records if r["ev"] == "span"}
        assert spans == RANK_SPANS | extra, backend
        per_rank = {
            name: sorted(
                r["rank"] for r in obs.tracer.records
                if r["ev"] == "span" and r["name"] == name
            )
            for name in ("map_finish", "shuffle_recv", "result_recv")
        }
        home = [0, 1] if "result_recv" in extra else []
        assert per_rank == {
            "map_finish": [0, 1], "shuffle_recv": [0, 1], "result_recv": home,
        }, backend


# -- one pre-flight rule -------------------------------------------------------

_PREFLIGHT_CASES = {
    "plan-without-replay": (FaultPlan(kill_rank_at_chunk={0: 1}), False, None),
    "replay-without-plan": (None, True, None),
    "plan-with-replay": (FaultPlan(kill_rank_at_chunk={0: 1}), True,
                         "mutually exclusive"),
}


@pytest.mark.parametrize("backend", ("serial", "local", "cluster"))
@pytest.mark.parametrize("case", sorted(_PREFLIGHT_CASES))
def test_preflight_is_one_rule_on_every_backend(backend, case):
    """Every real backend accepts and rejects the same (plan, replay)
    pairs with the same message: a plan never rides a replayed
    schedule."""
    plan, replay, rejects = _PREFLIGHT_CASES[case]
    ex = make_executor(backend, 2)
    ex.fault_plan = plan
    schedule = object() if replay else None
    if rejects is None:
        ex._preflight(schedule)
    else:
        with pytest.raises(ValueError, match=rejects):
            ex._preflight(schedule)


"""Ranks outlive a run: one executor, many jobs, the same processes.

A ``local`` or ``cluster`` executor builds its coordinator and forks
its ranks on the first ``run()``; every later run is a fresh ASSIGN on
the same control connections, and ``close()`` (or the garbage
collector, for an executor nobody closed) hangs up on the ranks, which
then exit.  These tests pin the lifetime: back-to-back jobs of
different apps stay bytewise equal to ``serial`` on unchanged PIDs; a
rank killed while idle is replaced before the next ASSIGN; a failed
run tears every rank down and the next run starts on fresh ones; a
scripted kill recovers in every run of one executor; and nothing is
left alive afterwards.  The auth check at the end talks to the
long-lived coordinator between runs.
"""

import gc
import multiprocessing as mp
import os
import signal
import socket
import time

import pytest

from repro.apps.kmeans import kmc_dataset, kmc_job
from repro.apps.sparse_int_occurrence import sio_dataset, sio_job
from repro.core import FaultPlan, Mapper, MapReduceJob, make_executor
from repro.core.faults import WorkerFailure
from repro.fabric import send_frame
from repro.fabric.wire import MSG_HELLO

SIO = sio_dataset(12_000, chunk_elements=2_000, key_space=1 << 10, seed=21)
SIO_JOB = sio_job(SIO.key_space).with_config(enable_stealing=False)
KMC = kmc_dataset(6_000, n_centers=8, dims=3, chunk_points=1_000, seed=22)
KMC_JOB = kmc_job(KMC).with_config(enable_stealing=False)


def _serial(job, dataset, n=2):
    return make_executor("serial", n).run(job, dataset)


def _assert_bytewise(ref, got, tag):
    assert len(ref.outputs) == len(got.outputs), tag
    for rank, (a, b) in enumerate(zip(ref.outputs, got.outputs)):
        where = f"{tag} rank {rank}"
        assert (a is None) == (b is None), where
        if a is not None:
            assert a.keys.dtype == b.keys.dtype, where
            assert a.keys.tobytes() == b.keys.tobytes(), where
            assert a.values.dtype == b.values.dtype, where
            assert a.values.tobytes() == b.values.tobytes(), where


def _rank_pids(ex):
    return {rank: p.pid for rank, p in ex._ranks.procs.items()}


def _wait_dead(pid, seconds=5.0):
    """Wait until ``pid`` has exited (a zombie counts: its sockets are
    closed) without reaping it — the executor owns the reaping."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as f:
                if f.read().rsplit(")", 1)[1].split()[0] in ("Z", "X"):
                    return
        except FileNotFoundError:
            return
        time.sleep(0.005)
    raise AssertionError(f"process {pid} still alive after {seconds}s")


REFS = {"sio": _serial(SIO_JOB, SIO), "kmc": _serial(KMC_JOB, KMC)}
RUNS = [("sio", SIO_JOB, SIO), ("kmc", KMC_JOB, KMC), ("sio", SIO_JOB, SIO)]


@pytest.mark.parametrize("backend", ["local", "cluster"])
def test_back_to_back_jobs_reuse_the_rank_processes(backend):
    with make_executor(backend, 2, timeout_seconds=60.0) as ex:
        pids = None
        for app, job, dataset in RUNS:
            result = ex.run(job, dataset)
            _assert_bytewise(REFS[app], result, f"{backend} {app}")
            if pids is None:
                pids = _rank_pids(ex)
                address = ex.coordinator_address
            assert _rank_pids(ex) == pids, "a rank was re-forked between runs"
            assert ex.coordinator_address == address
    assert ex.coordinator_address is None
    assert mp.active_children() == []


def test_rank_killed_while_idle_is_respawned_before_the_next_run():
    with make_executor("local", 2, timeout_seconds=60.0) as ex:
        ex.run(SIO_JOB, SIO)
        before = _rank_pids(ex)
        os.kill(before[1], signal.SIGKILL)
        _wait_dead(before[1])
        _assert_bytewise(REFS["sio"], ex.run(SIO_JOB, SIO), "after idle kill")
        after = _rank_pids(ex)
        assert after[0] == before[0] and after[1] != before[1]


class _BoomMapper(Mapper):
    def map_chunk(self, chunk):
        raise RuntimeError("resident boom")

    def map_cost(self, chunk):  # pragma: no cover - never priced
        return []


def test_failed_run_tears_down_and_the_next_run_starts_fresh():
    boom = MapReduceJob(name="boom", mapper=_BoomMapper())
    with make_executor("cluster", 2, timeout_seconds=60.0) as ex:
        ex.run(SIO_JOB, SIO)
        first = _rank_pids(ex)
        with pytest.raises(WorkerFailure, match="resident boom"):
            ex.run(boom, SIO)
        assert ex.coordinator_address is None
        assert mp.active_children() == []
        _assert_bytewise(REFS["sio"], ex.run(SIO_JOB, SIO), "after a failure")
        assert set(_rank_pids(ex).values()).isdisjoint(first.values())


def test_scripted_kill_recovers_in_every_run_of_one_executor():
    plan = FaultPlan(kill_rank_at_chunk={1: 2})
    with make_executor("local", 2, fault_plan=plan, timeout_seconds=60.0) as ex:
        for run in (1, 2):
            result = ex.run(SIO_JOB, SIO)
            assert result.stats.chunks_reclaimed > 0, f"run {run} never killed"
            _assert_bytewise(REFS["sio"], result, f"kill run {run}")


def test_unclosed_executor_leaves_no_process_once_collected():
    result = make_executor("local", 2).run(SIO_JOB, SIO)
    gc.collect()
    assert mp.active_children() == []
    _assert_bytewise(REFS["sio"], result, "one-liner")


class _Tripwire:
    """Unpickling this calls ``os.mkdir(path)``: a side effect that
    shows whether a listener unpickled an unauthenticated frame."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def _drain_until_hung_up(sock):
    """Read what the listener sent (its raw challenge) until it hangs
    up; ``socket.timeout`` if it never does."""
    sock.settimeout(10.0)
    try:
        while sock.recv(4096):
            pass
    except ConnectionResetError:
        pass


def test_keyed_coordinator_never_unpickles_before_auth(tmp_path):
    """A connection that skips the challenge and sends a pickled frame
    is dropped by the long-lived coordinator without unpickling it."""
    key = b"resident-key"
    fired = tmp_path / "fired"
    with make_executor("cluster", 2, auth_key=key, timeout_seconds=60.0) as ex:
        ex.run(SIO_JOB, SIO)
        with socket.create_connection(ex.coordinator_address, timeout=5.0) as sock:
            send_frame(sock, MSG_HELLO, _Tripwire(str(fired)))
            # Between runs nobody accepts; the next run's result loop
            # admits the connection, fails its handshake and drops it.
            _assert_bytewise(REFS["sio"], ex.run(SIO_JOB, SIO), "keyed run 2")
            _drain_until_hung_up(sock)
    assert not fired.exists(), "a pre-auth frame was unpickled"

"""Sim-vs-real cross-validation of the execution backends.

Every app must produce **bit-identical** per-rank outputs under the
discrete-event sim backend, the in-process serial backend, the
``multiprocessing`` local backend, and the TCP-socket cluster backend,
across multiple worker counts and uneven chunk splits.  This turns the
simulator's functional-correctness claims into checkable facts: the
sim's answers are exactly what real parallel execution of the same job
produces — whether the shuffle rides in-node pipes or a real wire.

Stealing is disabled for the strict parity runs: the parity contract
pins the deterministic round-robin chunk placement, while sim stealing
re-routes chunks based on modeled timing.  The load-balanced
counterpart lives in ``test_steal_parity.py``: sim-recorded steal
schedules replayed bit-for-bit on the real backends.
"""

import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.apps.kmeans import kmc_dataset, kmc_job, kmc_validate
from repro.apps.linear_regression import lr_dataset, lr_job, lr_validate
from repro.apps.matmul import (
    _phase2_chunks,
    mm_dataset,
    mm_phase1_job,
    mm_phase2_job,
    mm_validate,
    run_matmul,
)
from repro.apps.sparse_int_occurrence import sio_dataset, sio_job, sio_validate
from repro.apps.word_occurrence import wo_dataset, wo_job, wo_validate
from repro.core import Mapper, MapReduceJob, available_backends, make_executor
from repro.core.kvset import KeyValueSet
from repro.exec import WorkerFailure

#: >= 3 worker counts, including the acceptance floor of 4 real
#: multiprocessing workers; none divides the 7-chunk datasets evenly.
WORKER_COUNTS = (2, 4, 5)

BACKENDS = ("sim", "serial", "local", "cluster")

#: The backends that run the dataflow on real OS processes.
PROCESS_BACKENDS = ("local", "cluster")


def _assert_outputs_identical(ref, other, tag):
    assert len(ref.outputs) == len(other.outputs), tag
    for rank, (a, b) in enumerate(zip(ref.outputs, other.outputs)):
        where = f"{tag} rank {rank}"
        assert (a is None) == (b is None), where
        if a is None:
            continue
        assert a.keys.dtype == b.keys.dtype, where
        assert a.values.dtype == b.values.dtype, where
        assert np.array_equal(a.keys, b.keys), where
        # tobytes() comparison is deliberately bitwise: float reductions
        # must happen in the same order on every backend.
        assert a.values.tobytes() == b.values.tobytes(), where
        assert a.scale == b.scale, where


def _run_everywhere(job, n_workers, dataset=None, chunks=None):
    results = {
        b: make_executor(b, n_workers).run(job, dataset=dataset, chunks=chunks)
        for b in BACKENDS
    }
    for backend in BACKENDS[1:]:
        _assert_outputs_identical(
            results["sim"], results[backend], f"{job.name}/{backend}/n={n_workers}"
        )
    return results


def test_backend_registry_is_complete():
    assert set(BACKENDS) <= set(available_backends())
    with pytest.raises(ValueError, match="unknown execution backend"):
        make_executor("quantum", 2)


@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
def test_sio_parity(n_workers):
    ds = sio_dataset(120_000, chunk_elements=18_000, key_space=1 << 16, seed=3)
    assert ds.n_chunks % n_workers != 0  # uneven split
    job = sio_job(key_space=1 << 16).with_config(enable_stealing=False)
    results = _run_everywhere(job, n_workers, dataset=ds)
    sio_validate(results["local"], ds)


@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
def test_wo_parity(n_workers):
    ds = wo_dataset(1 << 18, chunk_chars=40_000, n_words=2_000, seed=7)
    job = wo_job(n_workers, n_words=2_000).with_config(enable_stealing=False)
    results = _run_everywhere(job, n_workers, dataset=ds)
    wo_validate(results["local"], ds)


@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
def test_kmc_parity(n_workers):
    ds = kmc_dataset(30_000, n_centers=16, dims=3, chunk_points=4_500, seed=11)
    assert ds.n_chunks % n_workers != 0
    job = kmc_job(ds).with_config(enable_stealing=False)
    results = _run_everywhere(job, n_workers, dataset=ds)
    kmc_validate(results["local"], ds)


@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
def test_lr_parity(n_workers):
    ds = lr_dataset(40_000, chunk_points=6_000, seed=5)
    assert ds.n_chunks % n_workers != 0
    job = lr_job().with_config(enable_stealing=False)
    results = _run_everywhere(job, n_workers, dataset=ds)
    lr_validate(results["local"], ds)


@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
def test_mm_parity_both_phases(n_workers):
    """MM's two-phase flow: phase-1 shuffle and phase-2 sums match."""
    ds = mm_dataset(512, tile=128, kspan=2, seed=13)
    job1 = mm_phase1_job(ds).with_config(enable_stealing=False)
    job2 = mm_phase2_job(ds).with_config(enable_stealing=False)

    p1 = _run_everywhere(job1, n_workers, dataset=ds)
    # Phase-2 chunks are derived from each backend's own phase-1 output.
    for backend in BACKENDS:
        chunks = _phase2_chunks(ds, p1[backend])
        p2 = make_executor(backend, n_workers).run(job2, chunks=chunks)
        if backend == "sim":
            ref = p2
        else:
            _assert_outputs_identical(ref, p2, f"mm-p2/{backend}/n={n_workers}")


def test_mm_end_to_end_local_product_is_correct():
    """`run_matmul(backend="local")` assembles the right product."""
    ds = mm_dataset(256, tile=64, kspan=2, seed=17)
    result = run_matmul(4, ds, backend="local")
    mm_validate(result, ds)


def test_parity_with_fewer_chunks_than_workers():
    """Chunkless accumulation workers still emit their initial state."""
    ds = lr_dataset(12_000, chunk_points=5_000, seed=23)  # 3 chunks
    assert ds.n_chunks == 3
    job = lr_job().with_config(enable_stealing=False)
    results = _run_everywhere(job, 5, dataset=ds)
    lr_validate(results["local"], ds)


def test_parity_single_distribution():
    """The all-on-rank-0 placement is canonical too."""
    ds = sio_dataset(60_000, chunk_elements=9_000, key_space=1 << 14, seed=29)
    job = sio_job(key_space=1 << 14).with_config(enable_stealing=False)
    ref = make_executor("sim", 4, initial_distribution="single").run(job, dataset=ds)
    for backend in ("serial", "local", "cluster"):
        got = make_executor(backend, 4, initial_distribution="single").run(
            job, dataset=ds
        )
        _assert_outputs_identical(ref, got, f"single/{backend}")


class _BoomMapper(Mapper):
    """Raises on the first mapped chunk (failure-propagation tests)."""

    def map_chunk(self, chunk):
        raise RuntimeError("boom in worker")

    def map_cost(self, chunk):  # pragma: no cover - never priced
        return []


class _SlowMapper(Mapper):
    """Sleeps through every chunk so a test can kill a rank mid-map."""

    def map_chunk(self, chunk):
        time.sleep(5.0)
        return KeyValueSet(
            keys=np.zeros(1, dtype=np.uint32), values=np.zeros(1)
        )

    def map_cost(self, chunk):  # pragma: no cover - never priced
        return []


class _ChunkZeroBoomMapper(Mapper):
    """Fails only on chunk 0, i.e. on exactly one rank of the job."""

    def map_chunk(self, chunk):
        if chunk.index == 0:
            raise RuntimeError("boom on chunk zero")
        return KeyValueSet(
            keys=np.asarray([chunk.index], dtype=np.uint32),
            values=np.ones(1),
        )

    def map_cost(self, chunk):  # pragma: no cover - never priced
        return []


@pytest.mark.parametrize("backend", PROCESS_BACKENDS)
def test_worker_failure_propagates(backend):
    """A raising mapper surfaces as WorkerFailure, not a hang."""
    ds = sio_dataset(10_000, chunk_elements=2_000, key_space=1 << 10, seed=1)
    job = MapReduceJob(name="boom", mapper=_BoomMapper())
    ex = make_executor(backend, 4, timeout_seconds=60.0)
    with pytest.raises(WorkerFailure, match="boom in worker"):
        ex.run(job, dataset=ds)


@pytest.mark.parametrize("backend", PROCESS_BACKENDS)
def test_single_rank_failure_fails_fast_with_traceback(backend):
    """One failing rank must surface its own traceback promptly while
    its peers are still alive and waiting on the shuffle — not stall
    until the job timeout, and not report a timeout instead."""
    ds = sio_dataset(12_000, chunk_elements=2_000, key_space=1 << 10, seed=3)
    assert ds.n_chunks >= 4
    job = MapReduceJob(
        name="one-boom", mapper=_ChunkZeroBoomMapper()
    ).with_config(enable_stealing=False)
    t0 = time.monotonic()
    with pytest.raises(WorkerFailure, match="boom on chunk zero"):
        make_executor(backend, 3, timeout_seconds=60.0).run(job, dataset=ds)
    assert time.monotonic() - t0 < 30.0


@pytest.mark.parametrize("backend", PROCESS_BACKENDS)
def test_worker_hard_kill_is_detected(backend):
    """SIGKILLing one rank mid-run raises WorkerFailure, never hangs.

    The local driver's liveness watch and the cluster coordinator's
    EOF detection are the two mechanisms under test; both must turn a
    silently dead process into a prompt, attributed failure.
    """
    ds = sio_dataset(9_000, chunk_elements=1_500, key_space=1 << 10, seed=2)
    job = MapReduceJob(name="victim", mapper=_SlowMapper()).with_config(
        enable_stealing=False
    )
    prefix = f"gpmr-{backend}-r"
    killed = threading.Event()

    def _killer():
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            ranks = [
                p for p in mp.active_children() if p.name.startswith(prefix)
            ]
            if ranks and all(p.pid is not None for p in ranks):
                os.kill(ranks[0].pid, signal.SIGKILL)
                killed.set()
                return
            time.sleep(0.02)

    killer = threading.Thread(target=_killer, daemon=True)
    killer.start()
    t0 = time.monotonic()
    with pytest.raises(WorkerFailure):
        make_executor(backend, 3, timeout_seconds=60.0).run(job, dataset=ds)
    killer.join(timeout=20.0)
    assert killed.is_set(), "killer thread never found a rank process"
    # Detection must beat both the mappers' sleeps and the job timeout:
    # the failure comes from liveness watching, not from waiting it out.
    assert time.monotonic() - t0 < 30.0


@pytest.mark.parametrize("backend", PROCESS_BACKENDS)
def test_spawn_start_method_parity(backend):
    """The spawn path (pickled job/chunks, fresh interpreters) is
    exercised explicitly — Linux CI otherwise always takes fork."""
    ds = sio_dataset(24_000, chunk_elements=5_000, key_space=1 << 12, seed=31)
    job = sio_job(key_space=1 << 12).with_config(enable_stealing=False)
    ref = make_executor("serial", 3).run(job, dataset=ds)
    got = make_executor(
        backend, 3, start_method="spawn", timeout_seconds=120.0
    ).run(job, dataset=ds)
    _assert_outputs_identical(ref, got, f"spawn/{backend}")


def test_local_stats_are_populated():
    ds = sio_dataset(50_000, chunk_elements=8_000, key_space=1 << 14, seed=2)
    job = sio_job(key_space=1 << 14).with_config(enable_stealing=False)
    result = make_executor("local", 4).run(job, dataset=ds)
    stats = result.stats
    assert stats.elapsed > 0
    assert stats.total_chunks == ds.n_chunks
    assert stats.total_pairs_logical == ds.n_elements
    assert all(w.stage_seconds.get("map", 0) >= 0 for w in stats.workers)
    assert stats.total_network_bytes > 0

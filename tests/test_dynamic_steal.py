"""Native dynamic work-stealing on the real backends, closed-loop.

PR 4 let the real backends *replay* schedules the sim generated; this
tier validates the inverse direction.  Every real backend now pulls
chunks at runtime from the driver's
:class:`~repro.core.scheduler.ChunkService` (serial: interleaved
in-process requests; local: a service thread answering worker queues;
cluster: ``CHUNK_REQ``/``CHUNK_GRANT`` control frames), so a run with
stealing enabled from an imbalanced ``single`` placement *generates* a
load-balanced :class:`~repro.core.scheduler.ScheduleTrace` of its own.

The closing contract: replaying that recorded trace on the **sim**
(the ``schedule=`` knob from the record/replay subsystem) must
reproduce the real run's per-rank outputs, per-worker chunk counts,
and per-worker steal ledgers **bit-for-bit** — for every app, on
serial, local, and cluster, including externally launched
``repro.fabric.launch`` ranks.  A deliberately stalled local worker
must demonstrably lose its chunks to its peers, with the trace naming
it as the victim of every steal.

The tier is marked ``slow``: the default ``pytest -m "not slow"`` run
skips it, and CI executes it in its own ``dynamic-steal`` job.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

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
from repro.core import FaultPlan, ScheduleTrace, make_executor
from repro.exec import ClusterExecutor

pytestmark = pytest.mark.slow

N_WORKERS = 4

NATIVE_BACKENDS = ("serial", "local", "cluster")

REPO_ROOT = Path(__file__).resolve().parent.parent


def _assert_same_run(ref, got, tag):
    """Bit-identical outputs + matching chunk/steal ledgers."""
    assert len(ref.outputs) == len(got.outputs), tag
    for rank, (a, b) in enumerate(zip(ref.outputs, got.outputs)):
        where = f"{tag} rank {rank}"
        assert (a is None) == (b is None), where
        if a is None:
            continue
        assert a.keys.dtype == b.keys.dtype, where
        assert np.array_equal(a.keys, b.keys), where
        assert a.values.dtype == b.values.dtype, where
        assert a.values.tobytes() == b.values.tobytes(), where
        assert a.scale == b.scale, where
    assert got.stats.steals_by_worker == ref.stats.steals_by_worker, tag
    assert [w.chunks_mapped for w in got.stats.workers] == [
        w.chunks_mapped for w in ref.stats.workers
    ], tag


#: Native steals are timing-dependent on the process backends: in rare
#: scheduling flukes the loaded rank drains its own queue before any
#: peer's first pull lands.  The recorded trace is valid either way;
#: retry a few times so the tier reliably exercises actual steals.
NATIVE_ATTEMPTS = 3


def _run_native(job, backend, dataset=None, chunks=None, **kwargs):
    """One load-balanced native run: stealing on, all chunks on rank 0."""
    for _ in range(NATIVE_ATTEMPTS):
        real = make_executor(
            backend, N_WORKERS, initial_distribution="single", **kwargs
        ).run(job, dataset=dataset, chunks=chunks)
        trace = real.schedule
        assert isinstance(trace, ScheduleTrace), f"{job.name}/{backend}"
        if trace.total_steals > 0:
            break
    else:
        pytest.fail(
            f"{job.name}/{backend} recorded no steals in "
            f"{NATIVE_ATTEMPTS} single-placement runs"
        )
    # The trace's ledgers ARE the run's ledgers.
    assert trace.steals_by_worker(N_WORKERS) == real.stats.steals_by_worker
    assert trace.chunk_counts(N_WORKERS) == [
        w.chunks_mapped for w in real.stats.workers
    ]
    return real


def _assert_sim_replay_matches(job, real, dataset=None, chunks=None, tag=""):
    """The closed loop: the real backend's native trace, replayed on
    the sim, reproduces the real run bit-for-bit."""
    sim = make_executor("sim", N_WORKERS).run(
        job, dataset=dataset, chunks=chunks, schedule=real.schedule
    )
    _assert_same_run(real, sim, tag)
    return sim


def _native_everywhere(job, dataset=None, chunks=None, validate=None):
    for backend in NATIVE_BACKENDS:
        real = _run_native(job, backend, dataset=dataset, chunks=chunks)
        _assert_sim_replay_matches(
            job, real, dataset=dataset, chunks=chunks,
            tag=f"{job.name}/native-steal/{backend}",
        )
        if validate is not None:
            validate(real)


def test_sio_native_steal_round_trips_through_sim():
    ds = sio_dataset(90_000, chunk_elements=9_000, key_space=1 << 15, seed=71)
    job = sio_job(key_space=1 << 15)
    _native_everywhere(job, dataset=ds, validate=lambda r: sio_validate(r, ds))


def test_wo_native_steal_round_trips_through_sim():
    ds = wo_dataset(1 << 17, chunk_chars=12_000, n_words=1_500, seed=73)
    job = wo_job(N_WORKERS, n_words=1_500)
    _native_everywhere(job, dataset=ds, validate=lambda r: wo_validate(r, ds))


def test_kmc_native_steal_round_trips_through_sim():
    ds = kmc_dataset(24_000, n_centers=12, dims=3, chunk_points=2_400, seed=79)
    job = kmc_job(ds)
    _native_everywhere(job, dataset=ds, validate=lambda r: kmc_validate(r, ds))


def test_lr_native_steal_round_trips_through_sim():
    ds = lr_dataset(36_000, chunk_points=3_600, seed=83)
    job = lr_job()
    _native_everywhere(job, dataset=ds, validate=lambda r: lr_validate(r, ds))


@pytest.mark.parametrize("backend", NATIVE_BACKENDS)
def test_mm_native_steal_both_phases(backend):
    """MM's two jobs each generate their own native trace; each one
    replays on the sim against that backend's own phase outputs."""
    ds = mm_dataset(384, tile=96, kspan=2, seed=89)
    for _ in range(NATIVE_ATTEMPTS):
        result = run_matmul(
            N_WORKERS, ds, backend=backend, initial_distribution="single"
        )
        if result.phase1.schedule.total_steals > 0:
            break
    else:
        pytest.fail(f"mm/{backend}: no phase-1 steals in {NATIVE_ATTEMPTS} runs")
    mm_validate(result, ds)
    tr1, tr2 = result.phase1.schedule, result.phase2.schedule

    sim1 = _assert_sim_replay_matches(
        mm_phase1_job(ds), result.phase1, dataset=ds,
        tag=f"mm-p1/native-steal/{backend}",
    )
    # Phase-2 chunks derive from phase-1 outputs; bit-identical phase-1
    # outputs mean the sim rebuilds the identical phase-2 chunk set.
    chunks = _phase2_chunks(ds, sim1)
    assert isinstance(tr2, ScheduleTrace)
    _assert_sim_replay_matches(
        mm_phase2_job(ds), result.phase2, chunks=chunks,
        tag=f"mm-p2/native-steal/{backend}",
    )


def test_serial_native_schedule_is_deterministic():
    """The serial backend's interleaved pull is a fixed request order:
    two identical runs must record the identical trace."""
    ds = sio_dataset(30_000, chunk_elements=3_000, key_space=1 << 12, seed=97)
    job = sio_job(key_space=1 << 12)
    a = _run_native(job, "serial", dataset=ds)
    b = _run_native(job, "serial", dataset=ds)
    assert a.schedule == b.schedule
    _assert_same_run(a, b, "sio/serial-determinism")


def test_stalled_local_worker_loses_chunks_to_its_peers():
    """Fault injection: rank 0 owns every chunk but sleeps before each
    request, so its idle peers must steal its work — and the recorded
    trace must mark those grants as steals with rank 0 as the victim."""
    ds = sio_dataset(48_000, chunk_elements=4_000, key_space=1 << 14, seed=101)
    job = sio_job(key_space=1 << 14)
    real = make_executor(
        "local", N_WORKERS,
        initial_distribution="single",
        fault_plan=FaultPlan(stall_seconds={0: 0.05}),
    ).run(job, dataset=ds)
    trace = real.schedule

    steals = [g for g in trace if g.was_steal]
    assert steals, "peers never stole from the stalled rank"
    # All chunks lived on rank 0, so every steal robbed rank 0 — and
    # was fetched by somebody else.
    assert all(g.victim == 0 and g.worker != 0 for g in steals)
    # The stalled rank demonstrably lost most of its work: the three
    # healthy peers together mapped more chunks than the stalled owner.
    counts = trace.chunk_counts(N_WORKERS)
    assert sum(counts[1:]) > counts[0]
    assert real.stats.steals_by_worker[0] == 0
    assert sum(real.stats.steals_by_worker[1:]) == len(steals)
    # The stall changes the schedule, never the answers.
    sio_validate(real, ds)
    _assert_sim_replay_matches(
        job, real, dataset=ds, tag="sio/stalled-local",
    )


def test_cluster_externally_launched_ranks_steal_natively():
    """The multi-host path pulls too: ranks joining via
    ``repro.fabric.launch`` request chunks over CHUNK_REQ frames, steal
    from the longest queue, and the recorded trace closes the loop
    through the sim."""
    ds = sio_dataset(40_000, chunk_elements=4_000, key_space=1 << 13, seed=103)
    # The per-chunk map delay widens the stealing window: rank 0 (the
    # loaded rank) spends ~20ms per chunk, so rank 1's first pull —
    # both ranks leave the same barrier — lands while plenty of chunks
    # are still stealable.  Without it, an OS-scheduling fluke can let
    # rank 0 drain all ten chunks first.
    job = sio_job(key_space=1 << 13, map_sleep_seconds=0.02)
    n = 2
    ex = ClusterExecutor(
        n, spawn_ranks=False, timeout_seconds=60.0,
        initial_distribution="single",
    )
    holder = {}

    def _drive():
        try:
            holder["result"] = ex.run(job, dataset=ds)
        except BaseException as exc:  # surfaced in the main thread below
            holder["error"] = exc

    driver = threading.Thread(target=_drive, daemon=True)
    driver.start()
    deadline = time.monotonic() + 30.0
    while ex.coordinator_address is None and "error" not in holder:
        assert time.monotonic() < deadline, "coordinator never came up"
        time.sleep(0.01)
    assert "error" not in holder, holder.get("error")
    host, port = ex.coordinator_address

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    ranks = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.fabric.launch",
                "--coordinator", f"{host}:{port}",
                "--rank", str(r),
                "--listen-host", "127.0.0.1",
                "--timeout", "60",
            ],
            env=env,
        )
        for r in range(n)
    ]
    driver.join(timeout=60.0)
    assert "error" not in holder, holder.get("error")
    # Launched ranks serve the executor until it closes, then exit 0.
    ex.close()
    for p in ranks:
        assert p.wait(timeout=60.0) == 0

    real = holder["result"]
    trace = real.schedule
    assert isinstance(trace, ScheduleTrace)
    assert trace.total_steals > 0, "external rank 1 never stole from rank 0"
    assert trace.steals_by_worker(n) == real.stats.steals_by_worker
    sim = make_executor("sim", n).run(job, dataset=ds, schedule=trace)
    _assert_same_run(real, sim, "sio/external-ranks-native")
    sio_validate(real, ds)

"""The job-service acceptance tier (slow; CI's job-service job).

A daemon on the local (real multiprocessing) backend serving 8
concurrent clients × 5 jobs each over a mixed app set, with three
acceptance gates from ROADMAP item 2:

- every service-run output is bit-identical to its one-shot
  ``run_app`` twin,
- warm-pool submit-to-result latency beats cold one-shot latency at
  the median,
- a second same-spec submission is a dataset-cache hit with ~zero
  ingest time.

Run with ``python -m pytest tests/test_job_service.py -q -m slow``.
"""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.apps import APPS
from repro.service import JobService, ServiceClient

pytestmark = pytest.mark.slow

N_CLIENTS = 8
JOBS_PER_CLIENT = 5
N_GPUS = 2

#: Mixed workload: three single-phase apps with multi-chunk datasets.
MIX = (
    ("SIO", {"n_elements": 6000, "chunk_elements": 1500,
             "key_space": 512, "seed": 21}),
    ("WO", {"n_chars": 4000, "chunk_chars": 1000, "seed": 22}),
    ("LR", {"n_points": 4000, "chunk_points": 1000, "seed": 23}),
)


@pytest.fixture
def daemon():
    svc = JobService(port=0, default_backend="local",
                     max_concurrent_jobs=4).start()
    yield svc
    svc.close()


def _oneshot(app, spec, **kwargs):
    entry = APPS[app]
    return entry.runner(N_GPUS, entry.dataset(**spec),
                        backend="local", **kwargs)


def _assert_identical(ref, got, tag):
    assert len(ref.outputs) == len(got.outputs), tag
    for rank, (a, b) in enumerate(zip(ref.outputs, got.outputs)):
        where = f"{tag} rank {rank}"
        assert (a is None) == (b is None), where
        if a is None:
            continue
        assert np.array_equal(a.keys, b.keys), where
        assert a.values.tobytes() == b.values.tobytes(), where


def _run_load(address):
    """``N_CLIENTS`` threads, each on its own connection, pipeline
    ``JOBS_PER_CLIENT`` ``submit_async`` calls over ``MIX`` (staggered
    so concurrent clients hit different apps), then collect them.

    Returns ``(completed, failed, errors, wall_s)``.
    """
    counts = {"completed": 0, "failed": 0}
    errors = []
    lock = threading.Lock()
    start_gate = threading.Event()

    def client_thread(c):
        jobs = [MIX[(c + j) % len(MIX)] for j in range(JOBS_PER_CLIENT)]
        with ServiceClient(*address) as client:
            start_gate.wait()
            futures = [client.submit_async(app, spec, n_gpus=N_GPUS)
                       for app, spec in jobs]
            for fut in futures:
                try:
                    fut.result(timeout=300.0)
                except Exception as exc:  # noqa: BLE001 - counted
                    with lock:
                        errors.append(str(exc))
                        counts["failed"] += 1
                else:
                    with lock:
                        counts["completed"] += 1

    threads = [threading.Thread(target=client_thread, args=(c,))
               for c in range(N_CLIENTS)]
    for t in threads:
        t.start()
    t0 = time.perf_counter()
    start_gate.set()
    for t in threads:
        t.join(timeout=600.0)
        assert not t.is_alive(), f"client thread {t.name} still running"
    return (counts["completed"], counts["failed"], errors,
            time.perf_counter() - t0)


def test_concurrent_load_bit_identical(daemon):
    """8 clients × 5 jobs, mixed apps: all complete, all bit-identical."""
    completed, failed, errors, wall_s = _run_load(daemon.address)
    assert failed == 0, errors
    assert completed == N_CLIENTS * JOBS_PER_CLIENT
    assert completed / wall_s > 0

    # Spot-check every app in the mix against its one-shot twin on a
    # fresh connection (the daemon is still warm from the load).
    with ServiceClient(*daemon.address) as client:
        for app, spec in MIX:
            run = client.submit(app, spec, n_gpus=N_GPUS, timeout=120)
            _assert_identical(_oneshot(app, spec), run.result, app)


def test_warm_submit_beats_cold_oneshot(daemon):
    """Median warm service latency < median cold-start one-shot latency.

    Cold start means what a user without the daemon actually does:
    launch a fresh driver process that imports the stack, builds the
    dataset and executor, forks the ranks, and runs the job
    once.  The warm path is one submit over an open connection to the
    already-resident daemon.  Medians over several runs keep scheduler
    noise out.
    """
    app, spec = MIX[0]
    with ServiceClient(*daemon.address) as client:
        client.submit(app, spec, n_gpus=N_GPUS, timeout=120)  # prime
        warm = []
        for _ in range(5):
            t0 = time.perf_counter()
            client.submit(app, spec, n_gpus=N_GPUS, timeout=120)
            warm.append(time.perf_counter() - t0)
    cold_script = (
        "from repro.apps import APPS\n"
        f"entry = APPS[{app!r}]\n"
        f"entry.runner({N_GPUS}, entry.dataset(**{spec!r}), backend='local')\n"
    )
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH", "")) if p
    )
    cold = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", cold_script],
            check=True, env=env, timeout=120,
        )
        cold.append(time.perf_counter() - t0)
    warm_p50 = sorted(warm)[len(warm) // 2]
    cold_p50 = sorted(cold)[len(cold) // 2]
    assert warm_p50 < cold_p50, (
        f"warm p50 {warm_p50:.4f}s not below cold-start p50 "
        f"{cold_p50:.4f}s (warm={warm}, cold={cold})"
    )


def test_cache_hit_ingest_near_zero(daemon):
    spec = {"n_elements": 200_000, "chunk_elements": 50_000,
            "key_space": 1024, "seed": 77}
    with ServiceClient(*daemon.address) as client:
        cold = client.submit("SIO", spec, n_gpus=N_GPUS, timeout=120)
        warm = client.submit("SIO", spec, n_gpus=N_GPUS, timeout=120)
    assert cold.cache_hit is False
    assert warm.cache_hit is True
    # Both sides are microseconds today (dataset factories build
    # lazily), so the acceptance gate is the flags plus an absolute
    # ingest ~ 0 bound — not a miss-vs-hit race between two tiny
    # numbers.
    assert warm.ingest_s < 0.01
    # The daemon's metrics histogram saw both acquisitions.
    with ServiceClient(*daemon.address) as client:
        snap = client.metrics()
    assert snap["metrics"]["histograms"]["ingest_s"]["count"] >= 2

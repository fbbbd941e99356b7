"""ClusterExecutor integration: the fabric under the real dataflow.

Parity of the cluster backend with sim/serial/local is enforced app by
app in ``tests/test_exec_parity.py``; this file covers what is specific
to the socket fabric — stats plumbing over the wire, the externally
launched rank path (``python -m repro.fabric.launch``, the multi-host
entry point, exercised here over localhost), and executor-level
configuration.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.apps.sparse_int_occurrence import sio_dataset, sio_job
from repro.core import (
    KeyValueSet,
    Mapper,
    MapReduceJob,
    RoundRobinPartitioner,
    make_executor,
)
from repro.exec import ClusterExecutor

REPO_ROOT = Path(__file__).resolve().parent.parent


def _job_and_dataset(seed=4):
    ds = sio_dataset(50_000, chunk_elements=8_000, key_space=1 << 14, seed=seed)
    job = sio_job(key_space=1 << 14).with_config(enable_stealing=False)
    return job, ds


def test_cluster_stats_are_populated():
    """Measured Figure-2 stage buckets survive the RESULT frame."""
    job, ds = _job_and_dataset()
    result = make_executor("cluster", 4).run(job, dataset=ds)
    stats = result.stats
    assert stats.elapsed > 0
    assert stats.total_chunks == ds.n_chunks
    assert stats.total_pairs_logical == ds.n_elements
    assert stats.total_network_bytes > 0
    assert len(stats.workers) == 4
    for w in stats.workers:
        assert w.stage_seconds.get("map", 0.0) >= 0.0
        assert "bin" in w.stage_seconds  # real exchange time was timed


def test_cluster_executor_registry_kwargs():
    ex = make_executor(
        "cluster", 3, timeout_seconds=45.0, start_method="spawn"
    )
    assert isinstance(ex, ClusterExecutor)
    assert ex.n_workers == 3
    assert ex.timeout_seconds == 45.0
    assert ex.start_method == "spawn"
    assert ex.coordinator_address is None  # only set while running


def test_cluster_externally_launched_ranks():
    """The multi-host path: ranks join via ``repro.fabric.launch``.

    The driver runs with ``spawn_ranks=False`` and each rank is a
    separate ``python -m repro.fabric.launch`` process dialing the
    coordinator — exactly what a two-terminal / two-host run does,
    minus the second host.
    """
    job, ds = _job_and_dataset(seed=8)
    n = 2
    ex = ClusterExecutor(n, spawn_ranks=False, timeout_seconds=60.0)
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
    for p in ranks:
        assert p.wait(timeout=60.0) == 0
    driver.join(timeout=60.0)
    assert "error" not in holder, holder.get("error")

    ref = make_executor("serial", n).run(job, dataset=ds)
    got = holder["result"]
    for a, b in zip(ref.outputs, got.outputs):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.values.tobytes() == b.values.tobytes()


def test_cluster_rank_never_arrives_times_out_fast():
    """A missing rank is a named TimeoutError (the same exception
    class the local backend's deadline raises), not an infinite hang."""
    job, ds = _job_and_dataset(seed=5)
    ex = ClusterExecutor(2, spawn_ranks=False, timeout_seconds=1.0)
    t0 = time.monotonic()
    with pytest.raises(TimeoutError, match="registration timed out"):
        ex.run(job, dataset=ds)
    assert time.monotonic() - t0 < 10.0


def test_cluster_wildcard_bind_still_dials_loopback():
    """host="0.0.0.0" (the multi-host bind) must not break locally
    spawned ranks — they dial loopback, not the wildcard."""
    job, ds = _job_and_dataset(seed=7)
    result = ClusterExecutor(
        2, host="0.0.0.0", timeout_seconds=60.0
    ).run(job, dataset=ds)
    ref = make_executor("serial", 2).run(job, dataset=ds)
    for a, b in zip(ref.outputs, result.outputs):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.values.tobytes() == b.values.tobytes()


def test_cluster_frame_bound_is_enforced_end_to_end():
    """A max_frame_bytes too small for the ASSIGN payload fails loudly
    (bound plumbed driver -> coordinator -> ranks), not silently."""
    job, ds = _job_and_dataset(seed=6)
    ex = ClusterExecutor(2, max_frame_bytes=512, timeout_seconds=15.0)
    with pytest.raises(Exception, match="frame|max_frame_bytes|failed"):
        ex.run(job, dataset=ds)


class _FanoutMapper(Mapper):
    """Emits 32 pairs per input element: shuffle volume >> input volume,
    so the exchange batches blow past a frame bound the (small) control
    frames — ASSIGN in, reduced RESULT out — fit comfortably within."""

    def map_chunk(self, chunk):
        data = np.asarray(chunk.data).astype(np.uint32)
        keys = (np.repeat(data, 32) * np.uint32(2654435761)) % np.uint32(1 << 14)
        return KeyValueSet(
            keys=keys,
            values=np.ones(len(keys), dtype=np.int32),
            scale=chunk.scale,
        )

    def map_cost(self, chunk):  # pragma: no cover - never priced
        return []


def test_cluster_batch_larger_than_frame_bound_streams():
    """Protocol v1 died with FrameTooLarge when one shuffle batch beat
    max_frame_bytes; the streamed data plane must complete the run —
    bit-identically — through a bound the batches exceed many times."""
    from repro.apps.sparse_int_occurrence import SIOReducer

    ds = sio_dataset(16_000, chunk_elements=4_000, key_space=1 << 14, seed=21)
    job = MapReduceJob(
        name="fanout",
        mapper=_FanoutMapper(),
        reducer=SIOReducer(),
        partitioner=RoundRobinPartitioner(),
    ).with_config(enable_stealing=False)
    # 16000 * 32 pairs * 8 B over a 2x2 exchange: each (src, dst) batch
    # carries ~1 MiB against a 128 KiB frame bound, while the reduced
    # outputs (<= 8192 keys per rank) stay inside it.
    bound = 1 << 17
    got = ClusterExecutor(
        2, max_frame_bytes=bound, timeout_seconds=60.0
    ).run(job, dataset=ds)
    assert got.stats.total_network_bytes > 4 * bound  # batches really big
    ref = make_executor("serial", 2).run(job, dataset=ds)
    for a, b in zip(ref.outputs, got.outputs):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a.keys, b.keys)
            assert a.values.tobytes() == b.values.tobytes()


def test_cluster_backend_with_auth_key_bit_identical():
    """A keyed cluster run: spawned ranks answer the coordinator's
    HMAC challenge and the outputs stay bit-identical to keyless."""
    job, ds = _job_and_dataset()
    ref = make_executor("cluster", 2).run(job, dataset=ds)
    got = make_executor("cluster", 2, auth_key=b"fabric-key").run(
        job, dataset=ds
    )
    for a, b in zip(ref.outputs, got.outputs):
        assert np.array_equal(a.keys, b.keys)
        assert a.values.tobytes() == b.values.tobytes()

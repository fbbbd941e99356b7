"""The probe-only shared-memory codec, and process-backend regressions.

Covers :mod:`repro.exec.exchange` in isolation (encode/decode and the
segment lifecycle; no backend uses it, the perf ledger's
``exchange.shm_roundtrip_mb_s`` probe does) and regressions on the
process backends' job path:

* a worker that exits cleanly (code 0) without reporting a result is a
  prompt :class:`WorkerFailure`, not a full-timeout hang;
* network byte accounting excludes self-destined parts (they never
  leave the process), reported separately as ``bytes_kept_local``.

And the rule that no wait on the job path is paced by a timer: an
empty ``local`` job costs its forks and not a poll tick.  And no job,
real or simulated, imports a third-party package besides NumPy, no
real-backend job loads the modeled cluster, and a forked rank imports
nothing at all.
"""

import multiprocessing as mp
import os
import subprocess
import sys
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.apps.sparse_int_occurrence import sio_dataset, sio_job
from repro.core import Mapper, MapReduceJob, make_executor
from repro.core.dataflow import map_worker
from repro.core.kvset import KeyValueSet
from repro.core.scheduler import resolve_chunks
from repro.exec import WorkerFailure
from repro.exec.exchange import (
    SHM_MIN_BYTES,
    decode_batch,
    encode_batch,
    release_segment,
)


def _big_batch():
    n = SHM_MIN_BYTES  # 12 B/pair -> comfortably above the threshold
    return [
        KeyValueSet(
            keys=np.arange(n, dtype=np.uint32),
            values=np.arange(n, dtype=np.float64),
            scale=2.0,
        )
    ]


def _small_batch():
    return [
        KeyValueSet(keys=np.arange(8, dtype=np.uint32), values=np.ones(8))
    ]


# -- transport encode/decode ------------------------------------------------

def test_small_batch_rides_inline():
    message = encode_batch(_small_batch())
    assert message[0] == "inline"
    parts, segment = decode_batch(message)
    assert segment is None
    assert len(parts) == 1
    assert parts[0].values.tobytes() == np.ones(8).tobytes()


def test_large_batch_rides_shared_memory_and_unlinks():
    batch = _big_batch()
    message = encode_batch(batch)
    assert message[0] == "shm"
    name = message[1]
    parts, segment = decode_batch(message)
    assert segment is not None
    assert parts[0].keys.tobytes() == batch[0].keys.tobytes()
    assert parts[0].values.tobytes() == batch[0].values.tobytes()
    assert parts[0].scale == 2.0
    # Zero-copy: the arrays are views into the mapped segment.
    assert not parts[0].keys.flags.owndata
    del parts
    release_segment(segment)
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_release_segment_with_live_views_still_unlinks():
    """BufferError on close (views alive) must not block the unlink."""
    message = encode_batch(_big_batch())
    parts, segment = decode_batch(message)
    release_segment(segment)  # parts still reference the mapping
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=message[1])
    assert parts[0].keys[3] == 3  # mapping stays valid for live views


# -- regression: clean exit without a result --------------------------------

class _ExitZeroMapper(Mapper):
    """Dies with exit code 0 on chunk 0 — no traceback, no result."""

    def map_chunk(self, chunk):
        if chunk.index == 0:
            os._exit(0)
        return KeyValueSet(
            keys=np.asarray([chunk.index], dtype=np.uint32),
            values=np.ones(1),
        )

    def map_cost(self, chunk):  # pragma: no cover - never priced
        return []


@pytest.mark.parametrize("backend", ("local", "cluster"))
def test_clean_exit_without_result_is_prompt_failure(backend):
    """`dead_worker_failure` only flags nonzero exit codes; a rank that
    exits 0 without posting must still fail the run promptly, named,
    instead of hanging for the full timeout_seconds."""
    ds = sio_dataset(9_000, chunk_elements=1_500, key_space=1 << 10, seed=2)
    job = MapReduceJob(name="ghost", mapper=_ExitZeroMapper()).with_config(
        enable_stealing=False
    )
    t0, cpu0 = time.monotonic(), time.process_time()
    with pytest.raises(WorkerFailure, match="worker rank 0 failed"):
        make_executor(backend, 3, timeout_seconds=60.0).run(job, dataset=ds)
    assert time.monotonic() - t0 < 30.0
    # The driver sleeps on the ranks' sockets; it does not spin.
    assert time.process_time() - cpu0 < 0.5


# -- regression: self vs remote byte split ----------------------------------

def test_map_phase_output_splits_self_and_remote_bytes():
    ds = sio_dataset(40_000, chunk_elements=8_000, key_space=1 << 14, seed=5)
    job = sio_job(key_space=1 << 14).with_config(enable_stealing=False)
    out = map_worker(job, resolve_chunks(ds, None), 4)
    assert out.bytes_binned > 0
    assert sum(out.bytes_binned_by_dest) == out.bytes_binned
    for rank in range(4):
        assert out.bytes_self(rank) == out.bytes_binned_by_dest[rank]
        assert out.bytes_self(rank) + out.bytes_remote(rank) == out.bytes_binned
        # A round-robin partition over a uniform key set touches every
        # destination, so both halves of the split are non-trivial.
        assert out.bytes_self(rank) > 0
        assert out.bytes_remote(rank) > 0


def test_network_bytes_exclude_self_destined_parts():
    ds = sio_dataset(30_000, chunk_elements=6_000, key_space=1 << 14, seed=9)
    job = sio_job(key_space=1 << 14).with_config(enable_stealing=False)

    # One worker: every part is self-destined — nothing rides the wire.
    solo = make_executor("serial", 1).run(job, dataset=ds).stats
    assert solo.total_network_bytes == 0
    assert solo.total_local_exchange_bytes > 0

    # Four workers: both shares are visible, and the real backends all
    # agree on the split (same map_worker accounting everywhere).
    serial = make_executor("serial", 4).run(job, dataset=ds).stats
    local = make_executor("local", 4).run(job, dataset=ds).stats
    assert serial.total_network_bytes > 0
    assert serial.total_local_exchange_bytes > 0
    assert local.total_network_bytes == serial.total_network_bytes
    assert local.total_local_exchange_bytes == serial.total_local_exchange_bytes
    # Every worker moved something on each side of the split.
    for w in serial.workers:
        assert w.bytes_sent_network > 0
        assert w.bytes_kept_local > 0

    # The sim charges its fabric the same way (loopback traffic is not
    # network traffic), so modeled and measured byte ledgers agree.
    sim = make_executor("sim", 4).run(job, dataset=ds).stats
    assert sim.total_network_bytes == serial.total_network_bytes
    assert sim.total_local_exchange_bytes == serial.total_local_exchange_bytes


# -- no wait on the job path is paced by a tick ------------------------------

def test_empty_local_job_costs_no_poll_tick():
    """One 1 Ki chunk on a fresh executor: two forks, registration and a
    handful of frame round-trips (~20 ms).  Waiting out a 100 ms poll
    tick anywhere on the path would make this >= 100 ms by construction."""
    ds = sio_dataset(1 << 10, chunk_elements=1 << 10, key_space=1 << 10, seed=5)
    job = sio_job(ds.key_space)
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        ex = make_executor("local", 2)
        try:
            ex.run(job, dataset=ds)
        finally:
            ex.close()
        walls.append(time.perf_counter() - t0)
    assert min(walls) < 0.060, walls


_IMPORT_DIET_SCRIPT = """
import sys, sysconfig
before = set(sys.modules)
site = (sysconfig.get_paths()["purelib"], sysconfig.get_paths()["platlib"])
import repro.fabric.launch, repro.exec.cluster, repro.exec.rank, repro.apps, repro.service
from repro.apps.sparse_int_occurrence import sio_dataset, sio_job
from repro.core import available_backends, make_executor

ds = sio_dataset(120_000, chunk_elements=18_000, key_space=1 << 22, seed=3)
job = sio_job(key_space=1 << 22)
make_executor("serial", 4).run(job, dataset=ds)
model = sorted(
    name for name in sys.modules
    if name.split(".")[:2] in (["repro", "sim"], ["repro", "net"],
                               ["repro", "baselines"], ["repro", "harness"])
    or (name.startswith("repro.hw.") and name != "repro.hw.kernel")
)
assert not model, f"the loop loaded the modeled cluster: {model}"
result = make_executor("sim", 4).run(job, dataset=ds)
assert available_backends() == ("cluster", "local", "serial", "sim"), available_backends()
installed = {
    name.partition(".")[0]
    for name in set(sys.modules) - before
    if (getattr(sys.modules[name], "__file__", None) or "").startswith(site)
}
assert installed <= {"numpy", "repro"}, f"imported third-party: {sorted(installed)}"
print(repr(result.stats.elapsed))
"""


def test_jobs_import_nothing_but_numpy_and_the_stdlib():
    """A rank, the service, a real-backend job and a sim job import no
    third-party package but NumPy: the sim's network model routes in
    closed form, with no graph library.  Until the sim job, the process
    holds no module of the modeled cluster (``repro.sim``, ``repro.net``,
    any ``repro.hw`` module but ``hw.kernel``), the baselines or the
    harness; the sim backend then loads by name on first use and still
    models the seconds pinned for ``sio_staged`` in
    ``tests/sim_pins.json``."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_DIET_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0.008821147323248416"


_IMPORT_AFTER_FORK_SCRIPT = """
import os, sys
driver = os.getpid()

def report(event, args):
    if event == "import" and os.getpid() != driver:
        os.write(2, f"IMPORT-AFTER-FORK {args[0]}\\n".encode())

sys.addaudithook(report)
from repro.apps.sparse_int_occurrence import sio_dataset, sio_job
from repro.core import make_executor

ds = sio_dataset(1 << 15, chunk_elements=1 << 13, key_space=1 << 16, seed=3)
job = sio_job(key_space=1 << 16)
for backend in ("cluster", "local"):
    with make_executor(backend, 2, start_method="fork") as ex:
        ex.run(job, dataset=ds)
print("ran")
"""


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_forked_ranks_import_nothing():
    """A forked rank finds every module it needs already loaded: the
    driver imports what a rank's first chunk and first connection
    would (``numpy.random``, ``encodings.idna``) before it forks, so no
    rank pays an import on any job."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_AFTER_FORK_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ran"
    late = sorted({
        line.split()[1] for line in done.stderr.splitlines()
        if line.startswith("IMPORT-AFTER-FORK ")
    })
    assert not late, f"ranks imported after the fork: {late}"

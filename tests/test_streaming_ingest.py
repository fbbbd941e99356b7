"""Streaming ingest: parity, faults, readers, and the satellite fixes.

The out-of-core contract: a plain ``factory(**spec)`` dataset resolves
to descriptor chunks, and runs every job **bit-identically** to the
same dataset handed over as resident ``chunks=`` on all four backends —
the only difference is *where* payloads are built (on the ranks at
grant time, never in the driver).  The fault-tolerance corollary: a
rank killed mid-map on a descriptor run recovers exactly like a
resident one, because reclaimed descriptor chunks rebuild their
payloads from ``(reader, index)`` on the respawned rank.

Also pins the resolution rule (which datasets stay resident), runs
jobs over ``.npy`` and text files (each file is itself a dataset), and
regression-tests the satellite fixes that rode along with the
streaming PR: the dataset cache's per-key build locks, the executor
pool's retire-on-failed-reset path, and the canonical content-based
freeze keys.
"""

import os
import pickle
import threading

import numpy as np
import pytest

from repro.apps import APPS
from repro.apps.kmeans import kmc_dataset, kmc_job
from repro.apps.linear_regression import lr_dataset, lr_job
from repro.apps.matmul import mm_dataset, mm_phase1_job
from repro.apps.sparse_int_occurrence import sio_dataset, sio_job
from repro.apps.word_occurrence import wo_dataset, wo_job
from repro.core import FaultPlan, make_executor
from repro.core.chunk import Chunk
from repro.core.scheduler import resolve_chunks
from repro.obs import Observability
from repro.service.cache import DatasetCache
from repro.service.pool import ExecutorPool
from repro.util.freeze import freeze_kwargs, freeze_value
from repro.workloads import (
    Dataset,
    DatasetReader,
    KMeansDataset,
    NpySpanReader,
    TextSpanReader,
    WorkItem,
    streamed,
)

BACKENDS = ("sim", "serial", "local", "cluster")
PROCESS_BACKENDS = ("local", "cluster")
N_WORKERS = 2


def _resident(chunk) -> bool:
    """Whether ``chunk``'s payload is in memory right now."""
    return chunk._data is not None


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
        # Bitwise on purpose: streamed payloads must be the *same
        # arrays*, so reductions happen in the same order.
        assert a.values.tobytes() == b.values.tobytes(), where
        assert a.scale == b.scale, where


# --- descriptor vs resident bit-parity, five apps x four backends -----

#: app -> (dataset factory, scalar spec, job builder over the dataset).
#: The job is built ONCE and shared by the descriptor and resident
#: runs, so only the chunk flavour varies.
APP_CASES = {
    "SIO": (
        sio_dataset,
        dict(n_elements=30_000, chunk_elements=4_500, key_space=1 << 12, seed=7),
        lambda ds: sio_job(key_space=1 << 12),
    ),
    "WO": (
        wo_dataset,
        dict(n_chars=1 << 16, chunk_chars=10_000, n_words=500, seed=11),
        lambda ds: wo_job(N_WORKERS, n_words=500),
    ),
    "KMC": (
        kmc_dataset,
        dict(n_points=6_000, n_centers=8, dims=3, chunk_points=1_000, seed=5),
        lambda ds: kmc_job(ds),
    ),
    "LR": (
        lr_dataset,
        dict(n_points=8_000, chunk_points=1_500, seed=13),
        lambda ds: lr_job(),
    ),
    "MM": (
        mm_dataset,
        dict(m=256, tile=64, kspan=2, seed=17),
        lambda ds: mm_phase1_job(ds),
    ),
}


@pytest.mark.parametrize("app", sorted(APP_CASES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_streamed_matches_materialised(app, backend):
    factory, spec, job_fn = APP_CASES[app]
    ds = factory(**spec)
    # The resident reference: the same payloads, built up front here.
    resident = [Chunk.from_work_item(item) for item in ds.chunks()]
    job = job_fn(ds).with_config(enable_stealing=False)
    ref = make_executor(backend, N_WORKERS).run(job, chunks=resident)
    got = make_executor(backend, N_WORKERS).run(job, dataset=ds)
    _assert_outputs_identical(ref, got, f"{app}/{backend}/descriptor")


def test_streamed_is_an_alias_for_the_factory():
    spec = APP_CASES["KMC"][1]
    stream = streamed(kmc_dataset, **spec)
    assert type(stream) is KMeansDataset
    assert np.array_equal(
        stream.start_centers(), kmc_dataset(**spec).start_centers()
    )


# --- which datasets resolve to descriptors ----------------------------

@pytest.mark.parametrize("app", sorted(APPS))
def test_registered_datasets_resolve_to_small_descriptors(app):
    factory, spec, _job_fn = APP_CASES[app]
    assert APPS[app].dataset is factory
    chunks = resolve_chunks(factory(**spec), None)
    assert chunks
    for chunk in chunks:
        assert not _resident(chunk)
        assert len(pickle.dumps(chunk)) < 1024


class _ArrayArgDataset(Dataset):
    """Importable and sized payload-free, but built from an array."""

    def __init__(self, values, seed=0):
        super().__init__(seed)
        self.values = np.asarray(values)

    @property
    def n_chunks(self):
        return 2

    def chunk_meta(self, index):
        return len(self.values), self.values.nbytes

    def chunk(self, index):
        self._check_index(index)
        return WorkItem(index, self.values + index, *self.chunk_meta(index))


class _NoMetaDataset(Dataset):
    """Scalar arguments, importable, but sizes only by building."""

    def __init__(self, n, seed=0):
        super().__init__(seed)
        self.n = n

    @property
    def n_chunks(self):
        return 2

    def chunk(self, index):
        self._check_index(index)
        return WorkItem(index, np.arange(self.n) + index, self.n, 8 * self.n)


def test_unrebuildable_datasets_resolve_resident():
    class LocalDataset(_NoMetaDataset):
        def chunk_meta(self, index):
            return self.n, 8 * self.n

    for ds in (
        _ArrayArgDataset(np.arange(4)),  # a non-scalar constructor argument
        LocalDataset(4),                 # no import path (<locals>)
        _NoMetaDataset(4),               # no payload-free chunk_meta
    ):
        assert ds.chunk_reader is None, type(ds).__name__
        chunks = resolve_chunks(ds, None)
        assert len(chunks) == 2
        assert all(_resident(c) for c in chunks), type(ds).__name__


def test_local_run_never_builds_kmc_chunks_in_the_driver(monkeypatch):
    driver = os.getpid()
    driver_builds = []
    build = KMeansDataset.chunk

    def counted(self, index):
        if os.getpid() == driver:
            driver_builds.append(index)
        return build(self, index)

    monkeypatch.setattr(KMeansDataset, "chunk", counted)
    spec = APP_CASES["KMC"][1]
    ds = kmc_dataset(**spec)
    job = kmc_job(ds).with_config(enable_stealing=False)
    got = make_executor("local", N_WORKERS).run(job, dataset=ds)
    assert driver_builds == []
    # The counter does see driver-side builds: the serial reference
    # maps in this process.
    ref = make_executor("serial", N_WORKERS).run(job, dataset=ds)
    assert sorted(driver_builds) == list(range(ds.n_chunks))
    _assert_outputs_identical(ref, got, "KMC/local/driver-free")


@pytest.mark.parametrize("app", ("SIO", "WO"))
def test_spawned_ranks_rebuild_descriptor_chunks(app):
    # Spawned ranks inherit nothing from the driver: every reader is
    # rebuilt from the key its descriptors carry.
    factory, spec, job_fn = APP_CASES[app]
    ds = factory(**spec)
    job = job_fn(ds).with_config(enable_stealing=False)
    ref = make_executor("serial", N_WORKERS).run(job, dataset=ds)
    got = make_executor("local", N_WORKERS, start_method="spawn").run(
        job, dataset=ds
    )
    _assert_outputs_identical(ref, got, f"{app}/local-spawn/descriptor")


# --- kill -9 mid-map on a descriptor run ------------------------------

@pytest.mark.parametrize("backend", PROCESS_BACKENDS)
def test_streamed_run_survives_mid_map_kill(backend):
    spec = dict(n_elements=42_000, chunk_elements=6_000, key_space=1 << 12, seed=9)
    job = sio_job(key_space=1 << 12).with_config(enable_stealing=False)
    clean = make_executor(backend, 3).run(job, dataset=sio_dataset(**spec))
    faulted = make_executor(
        backend, 3, fault_plan=FaultPlan(kill_rank_at_chunk={1: 2})
    ).run(job, dataset=sio_dataset(**spec))
    # The respawned rank re-granted reclaimed *descriptor* chunks and
    # re-materialised their payloads locally — same answer, bit for bit.
    assert faulted.stats.chunks_reclaimed > 0
    _assert_outputs_identical(clean, faulted, f"SIO/{backend}/streamed-kill")


# --- file datasets and the one reader --------------------------------

def test_npy_span_reader_round_trip(tmp_path):
    arr = np.arange(23 * 4, dtype=np.int64).reshape(23, 4)
    path = tmp_path / "rows.npy"
    np.save(path, arr)
    ds = NpySpanReader(path, rows_per_chunk=5)
    assert ds.n_chunks == 5  # 4 full spans + a 3-row tail
    rebuilt = np.concatenate([c.data for c in ds.chunks()])
    assert np.array_equal(rebuilt, arr)
    # chunk_meta is exact and payload-free: rows and row-bytes.
    assert ds.chunk_meta(0) == (5, 5 * 4 * 8)
    assert ds.chunk_meta(4) == (3, 3 * 4 * 8)
    assert (ds.chunk(4).logical_items, ds.chunk(4).logical_bytes) == ds.chunk_meta(4)
    # The span copy owns its bytes (not a view into the mmap).
    item = ds.chunk(1)
    assert item.data.base is None or not isinstance(
        item.data.base, np.memmap
    )
    with pytest.raises(IndexError):
        ds.chunk(5)


def test_text_span_reader_line_boundaries(tmp_path):
    lines = [f"word{i} " * (i % 5 + 1) for i in range(200)]
    blob = "\n".join(lines).encode() + b"\n"
    path = tmp_path / "corpus.txt"
    path.write_bytes(blob)
    ds = TextSpanReader(path, chunk_bytes=256)
    assert ds.n_chunks > 1
    spans = [c.data for c in ds.chunks()]
    assert b"".join(s.tobytes() for s in spans) == blob
    for span in spans[:-1]:
        # No word is ever split: every non-final span ends on a newline.
        assert span[-1] == ord("\n")
    for i, span in enumerate(spans):
        assert span.dtype == np.uint8
        assert ds.chunk_meta(i) == (len(span), len(span))


def test_text_span_reader_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="empty"):
        TextSpanReader(path, chunk_bytes=64)


def test_reader_pickle_round_trips_to_process_cache(tmp_path):
    np.save(tmp_path / "a.npy", np.arange(12, dtype=np.uint32))
    ds = NpySpanReader(tmp_path / "a.npy", rows_per_chunk=4)
    reader = ds.chunk_reader
    assert isinstance(reader, DatasetReader)
    blob = pickle.dumps(reader)
    # Unpickling twice yields the *same* cached instance: one open
    # mmap / boundary scan per (path, geometry) per worker process,
    # however many descriptor chunks name it.
    r1, r2 = pickle.loads(blob), pickle.loads(blob)
    assert r1 is r2
    assert np.array_equal(r1.materialize(0).data, ds.chunk(0).data)


def test_dataset_reader_rejects_live_object_specs():
    with pytest.raises(TypeError):
        DatasetReader(sio_dataset, {"n_elements": 1024, "rng": object()})


# --- jobs over files --------------------------------------------------

@pytest.mark.parametrize("backend", ["serial", "local", "local-spawn"])
def test_sio_over_a_npy_file_matches_the_in_memory_dataset(tmp_path, backend):
    """The README's file path: SIO over a ``.npy`` read as an
    ``NpySpanReader`` (one chunk per ``chunk_elements`` rows) gives
    bytewise the serial output of the same job over the in-memory
    ``sio_dataset`` it was saved from.  Spawned ranks inherit no open
    map: each reopens the file from the path its reader key carries."""
    spec = {"n_elements": 6000, "chunk_elements": 1500, "key_space": 512,
            "seed": 31}
    ds = sio_dataset(**spec)
    path = tmp_path / "sio.npy"
    np.save(path, np.concatenate([c.data for c in ds.chunks()]))
    on_file = NpySpanReader(path, rows_per_chunk=spec["chunk_elements"])
    assert on_file.n_chunks == ds.n_chunks
    # Descriptor chunks: the ranks open the file, the driver builds no span.
    assert on_file.chunk_reader is not None
    job = sio_job(spec["key_space"]).with_config(enable_stealing=False)
    kind, _, start_method = backend.partition("-")
    options = {"start_method": start_method} if start_method else {}
    ref = make_executor("serial", N_WORKERS).run(job, ds)
    got = make_executor(kind, N_WORKERS, **options).run(job, on_file)
    _assert_outputs_identical(ref, got, f"npy {backend}")


@pytest.mark.parametrize("backend", ["serial", "local"])
def test_wo_over_a_text_file_matches_the_oracle(tmp_path, backend):
    """WO over a text file read as a ``TextSpanReader`` counts every
    word the ``word_counts`` oracle counts over the in-memory corpus
    the file was written from (and the oracle reads the same counts
    off the file)."""
    from repro.apps.word_occurrence import wo_mph
    from repro.baselines.serial import word_counts

    ds = wo_dataset(n_chars=60_000, chunk_chars=10_000, seed=22, n_words=500)
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"".join(c.data.tobytes() for c in ds.chunks()))
    on_file = TextSpanReader(path, chunk_bytes=10_000)
    assert on_file.n_chunks > 1
    assert on_file.chunk_reader is not None
    job = wo_job(N_WORKERS, n_words=500)
    result = make_executor(backend, N_WORKERS).run(job, on_file)
    mph = wo_mph(500)
    expected = word_counts(ds, mph)
    np.testing.assert_array_equal(word_counts(on_file, mph), expected)
    got = np.zeros(mph.n, dtype=np.int64)
    merged = result.merged()
    np.add.at(got, merged.keys.astype(np.int64), merged.values.astype(np.int64))
    np.testing.assert_array_equal(got, expected)


def test_descriptor_chunk_pickles_small_and_rematerialises(tmp_path):
    np.save(tmp_path / "d.npy", np.arange(1 << 16, dtype=np.uint32))
    ds = NpySpanReader(tmp_path / "d.npy", rows_per_chunk=1 << 14)
    # A dataset= SUBMIT to the daemon pickles the dataset itself: it
    # travels as its path, not as a copy of the mapped rows.
    shipped = pickle.dumps(ds)
    assert len(shipped) < 4096
    assert np.array_equal(pickle.loads(shipped).chunk(3).data, ds.chunk(3).data)
    chunk = resolve_chunks(ds, None)[2]
    assert not _resident(chunk)
    assert (chunk.logical_items, chunk.logical_bytes) == ds.chunk_meta(2)
    blob = pickle.dumps(chunk)
    # Descriptor-only on the wire: far smaller than the 64 KiB payload.
    assert len(blob) < 4096
    clone = pickle.loads(blob)
    assert np.array_equal(clone.data, ds.chunk(2).data)
    clone.release()
    assert not _resident(clone)
    assert np.array_equal(clone.data, ds.chunk(2).data)


# --- satellite 2: per-key cache build locks ---------------------------

def test_dataset_cache_builds_once_under_contention():
    obs = Observability()
    cache = DatasetCache(max_entries=8, obs=obs)
    specs = [
        {"n_elements": 4096, "chunk_elements": 1024, "seed": 1},
        {"n_elements": 4096, "chunk_elements": 1024, "seed": 2},
    ]
    got = []
    lock = threading.Lock()

    def worker(spec):
        ds, _hit = cache.get("SIO", spec)
        with lock:
            got.append((spec["seed"], ds))

    threads = [
        threading.Thread(target=worker, args=(specs[i % 2],))
        for i in range(16)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Exactly one ingest per distinct spec, every caller sharing it.
    assert obs.metrics.counter("dataset_cache_misses").value == 2
    assert obs.metrics.counter("dataset_cache_hits").value == 14
    for seed in (1, 2):
        objs = {id(ds) for s, ds in got if s == seed}
        assert len(objs) == 1, f"seed {seed} built more than once"


def test_dataset_cache_entry_resolves_to_descriptors():
    cache = DatasetCache(max_entries=8)
    spec = {"n_elements": 4096, "chunk_elements": 1024, "seed": 3}
    ds, hit = cache.get("SIO", dict(spec))
    assert not hit
    again, hit = cache.get("SIO", dict(spec))
    assert hit and again is ds
    # The cached entry holds scalars, not chunks: jobs over it ship
    # descriptors and the ranks build the payloads.
    chunks = resolve_chunks(ds, None)
    assert len(chunks) == 4
    assert not any(_resident(c) for c in chunks)


# --- satellite 3: pool retires a lease whose reset fails --------------

def test_pool_retires_executor_when_reset_raises():
    pool = ExecutorPool()
    ex = pool.lease("serial", 2)

    def broken_reset():
        raise RuntimeError("reset exploded")

    ex.reset = broken_reset
    with pytest.raises(RuntimeError, match="reset exploded"):
        pool.release(ex)
    # The broken lease was closed, not shelved: the next lease must
    # not inherit un-resettable state.
    assert ex.closed
    assert pool.idle_count == 0
    replacement = pool.lease("serial", 2)
    assert replacement is not ex
    pool.release(replacement)
    pool.close()


# --- satellite 4: canonical content-based freeze keys -----------------

def test_freeze_rejects_address_bearing_reprs():
    # A default repr embeds the object's address — such a key would
    # never match again, silently defeating the pool/cache.  Rejecting
    # is the fix; keying on repr was the bug.
    with pytest.raises(TypeError, match="canonicalise"):
        freeze_kwargs({"obs": object()})


def test_freeze_distinguishes_truncation_colliding_arrays():
    a = np.arange(10_000, dtype=np.int64)
    b = a.copy()
    b[5_000] += 1
    # repr() truncates both to "[0 1 2 ... 9997 9998 9999]" — a repr
    # key would collide these distinct specs onto one cache entry.
    assert repr(a) == repr(b)
    assert freeze_value(a) != freeze_value(b)
    # ...while genuinely equal arrays (even non-contiguous views that
    # compare equal) share a key.
    assert freeze_value(a) == freeze_value(np.arange(10_000, dtype=np.int64))
    assert freeze_kwargs({"x": 1, "y": a}) == freeze_kwargs({"y": b - (b - a), "x": 1})


def test_freeze_plans_and_scalars_share_keys_by_value():
    plan_a = FaultPlan(kill_rank_at_chunk={1: 2})
    plan_b = FaultPlan(kill_rank_at_chunk={1: 2})
    assert freeze_value(plan_a) == freeze_value(plan_b)
    assert freeze_value(True) != freeze_value(1)  # no bool/int aliasing

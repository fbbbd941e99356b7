"""Fused runs: validation, bit parity, volume.

A fused run (``fused=True``) is the job's own mapper followed at once by
its per-chunk fold: into the accumulator (WO, KMC, LR, any accumulating
job) or through ``MapReduceJob.fused`` (SIO's ``SumPartialReducer``).
Three claims are enforced here:

* a fused run of every job with a fold is bit-identical to the staged
  map → partial-reduce → partition pipeline on every backend — it calls
  the same mapper and folds with the staged accumulator, or pre-sums
  integer counts the reducer sums anyway, so fusion is a data-movement
  optimisation, not a numerics change;
* the fused knob is validated before any rank starts: a job with
  nothing to fold (MM, the naive LR port) rejects ``fused=True``, a job
  may not carry both an accumulator and a ``fused`` fold, and there is
  no other per-run array-library knob;
* fusion buys emission volume: fused KMC and WO hand the exchange
  under a quarter of their raw ports' bytes, and fused SIO combines
  duplicate keys before the shuffle.  (Map throughput, fused and
  staged, is the ledger's ``dataflow.map_*mb_s`` probes.)
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.apps.kmeans import kmc_dataset, kmc_job
from repro.apps.linear_regression import lr_dataset, lr_job
from repro.apps.matmul import mm_dataset, mm_phase1_job, mm_phase2_job
from repro.apps.sparse_int_occurrence import sio_dataset, sio_job
from repro.apps.word_occurrence import wo_dataset, wo_job
from repro.core import (
    KeyValueSet,
    Mapper,
    MapReduceJob,
    PipelineConfig,
    RoundRobinPartitioner,
    make_executor,
)
from repro.core.chunk import Chunk
from repro.core.combine import SumAccumulator, SumCombiner, SumPartialReducer
from repro.core.dataflow import MapRunner, reduce_worker
from repro.core.stats import WorkerStats
from repro.obs import Observability
from test_core_pipeline import KEY_SPACE, count_job, make_dataset


def _rng():
    return np.random.default_rng(42)


BACKENDS = ("sim", "serial", "local", "cluster")


@pytest.mark.parametrize("backend", BACKENDS)
def test_accel_is_an_unknown_keyword(backend):
    """The array-library knob is gone from every constructor."""
    with pytest.raises(TypeError, match="accel"):
        make_executor(backend, 2, accel="numpy")


def test_pipeline_config_has_no_accel_field():
    with pytest.raises(TypeError, match="accel"):
        PipelineConfig(accel="numpy")


# -- fused / unfused job validation -----------------------------------------

def test_fused_kernel_rejects_combiner():
    job = sio_job(key_space=1 << 10)
    with pytest.raises(ValueError, match="fused kernel subsumes"):
        replace(job, combiner=SumCombiner())


def test_fused_config_requires_fused_kernel():
    job = lr_job(use_accumulation=False)  # the naive port has none
    assert job.fused is None
    with pytest.raises(ValueError, match="fused"):
        job.with_config(fused=True)


def test_fused_fold_and_accumulator_are_exclusive():
    """An accumulating job's fused run folds into its accumulator; a
    second, per-chunk fold beside it has no meaning."""
    with pytest.raises(ValueError, match="not both"):
        count_job(
            accumulator=SumAccumulator(KEY_SPACE, value_dtype=np.int64),
            fused=SumPartialReducer(),
        )


def test_mm_jobs_carry_no_fused_kernel():
    ds = mm_dataset(256, tile=64, kspan=2, seed=13)
    for job in (mm_phase1_job(ds), mm_phase2_job(ds)):
        assert job.fused is None
        with pytest.raises(ValueError, match="no fused kernel attached"):
            job.with_config(fused=True)
    # A runner asked for fused on a fused-less job maps the staged path.
    runner = MapRunner(mm_phase1_job(ds), 2, fused=True)
    runner.feed(next(iter(ds.chunks())))
    runner.finish()
    assert runner.out.chunks_mapped == 1


def test_fused_flag_on_fusedless_job_fails_at_run_time():
    ds = lr_dataset(2_000, chunk_points=600, seed=5)
    ex = make_executor("serial", 2, fused=True)
    with pytest.raises(ValueError, match="fused"):
        ex.run(lr_job(use_accumulation=False).with_config(enable_stealing=False), ds)


# -- fused == unfused, bit for bit ------------------------------------------

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
        assert a.values.tobytes() == b.values.tobytes(), where
        assert a.scale == b.scale, where


def _app_cases():
    sio_ds = sio_dataset(60_000, chunk_elements=9_000, key_space=1 << 14, seed=3)
    wo_ds = wo_dataset(1 << 16, chunk_chars=10_000, n_words=1_500, seed=7)
    kmc_ds = kmc_dataset(8_000, n_centers=8, dims=3, chunk_points=1_500, seed=11)
    lr_ds = lr_dataset(12_000, chunk_points=2_500, seed=5)
    return [
        pytest.param("SIO", sio_job(key_space=1 << 14), sio_ds, id="sio"),
        pytest.param("WO", wo_job(3, n_words=1_500), wo_ds, id="wo"),
        pytest.param("KMC", kmc_job(kmc_ds), kmc_ds, id="kmc"),
        pytest.param("LR", lr_job(), lr_ds, id="lr"),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("app,job,ds", _app_cases())
def test_fused_matches_unfused_every_backend(app, job, ds, backend):
    """Fused output == the staged pipeline, bitwise, on all four
    backends (the fused-parity CI gate)."""
    job = job.with_config(enable_stealing=False)
    ref = make_executor("serial", 3).run(job, ds)
    got = make_executor(backend, 3, fused=True).run(job, ds)
    _assert_outputs_identical(ref, got, f"{app}/{backend}/fused")


@pytest.mark.parametrize("backend", ("serial", "sim"))
def test_any_accumulating_job_runs_fused_without_a_kernel_of_its_own(backend):
    """Fusion needs no per-app kernel: a user job with an accumulator
    runs ``fused=True`` as its own mapper plus the accumulator fold."""
    ds = make_dataset(n=12_000, chunk=2_000)
    job = count_job(
        accumulator=SumAccumulator(KEY_SPACE, value_dtype=np.int64)
    ).with_config(enable_stealing=False)
    staged = make_executor(backend, 3).run(job, ds)
    fused = make_executor(backend, 3, fused=True).run(job, ds)
    _assert_outputs_identical(staged, fused, f"count/{backend}/fused")


# -- the _emit fast path -----------------------------------------------------

class _PassthroughMapper(Mapper):
    def map_chunk(self, chunk):
        data = chunk.data
        return KeyValueSet(
            keys=data.astype(np.uint32),
            values=np.ones(len(data), dtype=np.int32),
            scale=chunk.scale,
        )

    def map_cost(self, chunk):
        return []


# -- emission volume: what fusion buys --------------------------------------

def _bytes_binned(job, ds, fused):
    """Bytes one rank's map phase hands to a 4-way exchange."""
    runner = MapRunner(job, 4, fused=fused)
    for chunk in ds.chunks():
        runner.feed(chunk)
    runner.finish()
    return runner.out.bytes_binned


def test_fused_kmc_emits_under_a_quarter_of_the_raw_port():
    ds = kmc_dataset(1 << 14, n_centers=32, dims=2, chunk_points=1 << 12, seed=0)
    raw = _bytes_binned(kmc_job(ds, use_accumulation=False), ds, fused=False)
    fused = _bytes_binned(kmc_job(ds), ds, fused=True)
    assert 0 < fused < raw / 4


def test_fused_wo_emits_under_a_quarter_of_the_raw_port():
    ds = wo_dataset(1 << 16, chunk_chars=1 << 14, n_words=500, seed=0)
    raw = _bytes_binned(
        wo_job(4, n_words=500, use_accumulation=False), ds, fused=False
    )
    fused = _bytes_binned(wo_job(4, n_words=500), ds, fused=True)
    assert 0 < fused < raw / 4


def test_fused_sio_combines_duplicate_keys_on_a_dense_key_space():
    ds = sio_dataset(1 << 14, chunk_elements=1 << 12, key_space=1 << 8, seed=0)
    job = sio_job(key_space=ds.key_space)
    staged = _bytes_binned(job, ds, fused=False)
    fused = _bytes_binned(job, ds, fused=True)
    assert 0 < fused < staged


def _raw_job(partitioner):
    return MapReduceJob(
        name="raw",
        mapper=_PassthroughMapper(),
        reducer=None,
        partitioner=partitioner,
        key_bytes=4,
        value_bytes=4,
        key_bits=8,
    )


def _one_chunk(n=64):
    rng = _rng()
    return Chunk(index=0, data=rng.integers(0, 200, size=n),
                 logical_items=n, logical_bytes=4 * n)


def test_emit_fast_path_no_partitioner_routes_whole_to_rank0():
    chunk = _one_chunk()
    runner = MapRunner(_raw_job(None), 3)
    runner.feed(chunk)
    runner.finish()
    out = runner.out
    assert len(out.parts[0]) == 1 and not out.parts[1] and not out.parts[2]
    assert out.part_chunk_ids[0] == [0]
    kv = out.parts[0][0]
    assert np.array_equal(kv.keys, chunk.data.astype(np.uint32))
    assert out.bytes_binned == kv.nbytes_logical
    assert out.bytes_binned_by_dest == [kv.nbytes_logical, 0, 0]


def test_emit_fast_path_single_worker_matches_partition_parts():
    chunk = _one_chunk()
    job = _raw_job(RoundRobinPartitioner())
    runner = MapRunner(job, 1)
    runner.feed(chunk)
    runner.finish()
    out = runner.out
    kv = _PassthroughMapper().map_chunk(chunk)
    (slow_part,) = job.partition_parts(kv, 1)
    fast = out.parts[0][0]
    assert fast.keys.tobytes() == slow_part.keys.tobytes()
    assert fast.values.tobytes() == slow_part.values.tobytes()
    assert out.bytes_binned == slow_part.nbytes_logical


# -- reduce_worker span anchoring (one clock, rebased once) ------------------

def test_reduce_spans_share_one_monotonic_timebase():
    job = sio_job(key_space=1 << 10).with_config(enable_stealing=False)
    rng = _rng()
    incoming = [
        KeyValueSet(
            keys=rng.integers(0, 1 << 10, size=500).astype(np.uint32),
            values=np.ones(500, dtype=np.int32),
            scale=1.0,
        )
    ]
    obs = Observability()
    stats = WorkerStats(rank=0)
    t_before = time.time()
    out = reduce_worker(job, incoming, stats=stats, obs=obs)
    t_after = time.time()
    assert out is not None
    spans = {r["name"]: r for r in obs.tracer.records}
    sort, reduce_ = spans["sort"], spans["reduce"]
    # Both edges derive from one perf_counter rebased once: the sort
    # span's end IS the reduce span's start, not two wall-clock reads.
    assert sort["ts"] + sort["dur"] == pytest.approx(reduce_["ts"], abs=1e-9)
    for span in (sort, reduce_):
        assert t_before <= span["ts"] <= span["ts"] + span["dur"] <= t_after
    # The span edges carry the wall-clock rebase, so their difference
    # rounds a few ulps away from the raw perf_counter delta.
    assert stats.stage_seconds["sort"] == pytest.approx(sort["dur"], abs=1e-5)

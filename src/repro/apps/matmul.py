"""Matrix Multiplication (MM) — paper Section 5.3.1.

Two-phase tiled matrix multiply:

* **Phase 1**: each map chunk multiplies an A panel by a B panel
  (cache-oblivious tiling down to shared-memory blocks), emitting one
  *partial output tile* keyed by its (i, j) position.  The round-robin
  partitioner shuffles each partial tile to its owning rank.  Sort and
  Reduce are **bypassed** ("we bypass Sort and Reduce and implement
  another Map in a separate MapReduce") because a single-key reduction
  would have to hold all of a tile's partials in-core at once.
* **Phase 2**: a second MapReduce whose chunks are the groups of
  partial tiles per output position; its map sums them.  Keys are
  already owner-local after the phase-1 shuffle, so phase 2's
  round-robin partition sends every pair to its own rank.

MM is the paper's only embarrassingly-compute-bound benchmark: its
panel products run at matrix-multiply arithmetic intensity, so it is
the scaling yardstick (near-perfect efficiency at 64 GPUs for 16384^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..core import (
    Chunk,
    KeyValueSet,
    MapReduceJob,
    Mapper,
    PipelineConfig,
    RoundRobinPartitioner,
    ScheduleTrace,
    make_executor,
)
from ..core.executor import JobResult
from ..core.stats import JobStats, WorkerStats
from ..hw.kernel import KernelLaunch
from ..primitives import launch_1d
from ..workloads import MatrixDataset

__all__ = [
    "MMPhase1Mapper",
    "MMPhase2Mapper",
    "mm_phase1_job",
    "mm_phase2_job",
    "mm_dataset",
    "run_matmul",
    "MMResult",
    "mm_validate",
    "mm_phoenix_workload",
    "mm_mars_workload",
]


class MMPhase1Mapper(Mapper):
    """Panel x panel -> one partial output tile per chunk."""

    def __init__(self, dataset: MatrixDataset) -> None:
        self.dataset = dataset
        # Shared-memory staging for the 16x16 sub-tiles.
        self.scratch_bytes = 64 << 10

    def map_chunk(self, chunk: Chunk) -> KeyValueSet:
        ds = self.dataset
        task = ds.task(chunk.index)
        a_panel, b_panel = chunk.data
        partial = (a_panel.astype(np.float64) @ b_panel.astype(np.float64)).astype(
            np.float32
        )
        # One pair: key = output position, value = the flattened tile.
        # Each stored float stands for sample_factor^2 logical floats.
        scale = float(ds.sample_factor) ** 2
        return KeyValueSet(
            keys=np.array([ds.out_key(task)], dtype=np.uint32),
            values=partial.reshape(1, -1),
            scale=scale,
        )

    def map_cost(self, chunk: Chunk) -> List[KernelLaunch]:
        ds = self.dataset
        task = ds.task(chunk.index)
        return [
            launch_1d(
                "mm_panel_multiply",
                ds.tile_elems,
                flops_per_item=ds.panel_flops(task) / ds.tile_elems,
                read_bytes_per_item=ds.panel_bytes(task) / ds.tile_elems,
                write_bytes_per_item=4.0,
                coalescing=1.0,      # 16x16 shared-memory tiles, coalesced
                items_per_thread=1,
                block=256,
                syncs=2,             # tile-loop barriers
            )
        ]

    def output_bytes_estimate(self, chunk: Chunk) -> int:
        return self.dataset.tile_bytes


class MMPhase2Mapper(Mapper):
    """Sum the partial tiles of one output position."""

    def __init__(self, dataset: MatrixDataset) -> None:
        self.dataset = dataset

    def map_chunk(self, chunk: Chunk) -> KeyValueSet:
        partials = chunk.data  # (p, tile_actual^2) float32
        total = partials.astype(np.float64).sum(axis=0).astype(np.float32)
        scale = float(self.dataset.sample_factor) ** 2
        return KeyValueSet(
            keys=np.array([chunk.meta], dtype=np.uint32),
            values=total.reshape(1, -1),
            scale=scale,
        )

    def map_cost(self, chunk: Chunk) -> List[KernelLaunch]:
        ds = self.dataset
        p = len(chunk.data)
        return [
            launch_1d(
                "mm_partial_sum",
                ds.tile_elems,
                flops_per_item=float(p),
                read_bytes_per_item=4.0 * p,
                write_bytes_per_item=4.0,
                coalescing=1.0,
            )
        ]

    def input_bytes(self, chunk: Chunk) -> int:
        return chunk.logical_bytes

    def output_bytes_estimate(self, chunk: Chunk) -> int:
        return self.dataset.tile_bytes


def mm_dataset(
    m: int,
    tile: int = 1024,
    kspan: int = 8,
    seed: int = 0,
    sample_factor: int = 1,
) -> MatrixDataset:
    return MatrixDataset(m=m, tile=tile, kspan=kspan, seed=seed, sample_factor=sample_factor)


def mm_phase1_job(dataset: MatrixDataset) -> MapReduceJob:
    mapper = MMPhase1Mapper(dataset)
    return MapReduceJob(
        name="matmul-phase1",
        mapper=mapper,
        reducer=None,
        partitioner=RoundRobinPartitioner(),
        config=PipelineConfig(skip_sort_reduce=True),
        key_bytes=4,
        value_bytes=dataset.tile_bytes,
        key_bits=max(int(np.ceil(np.log2(max(dataset.grid**2, 2)))), 1),
    )


def mm_phase2_job(dataset: MatrixDataset) -> MapReduceJob:
    mapper = MMPhase2Mapper(dataset)
    return MapReduceJob(
        name="matmul-phase2",
        mapper=mapper,
        reducer=None,
        partitioner=RoundRobinPartitioner(),  # keys are already owner-local
        config=PipelineConfig(skip_sort_reduce=True),
        key_bytes=4,
        value_bytes=dataset.tile_bytes,
        key_bits=max(int(np.ceil(np.log2(max(dataset.grid**2, 2)))), 1),
    )


@dataclass
class MMResult:
    """Outcome of a two-phase MM run."""

    product: np.ndarray          #: assembled (sampled) output matrix
    elapsed: float               #: phase-1 + phase-2 simulated seconds
    phase1: JobResult
    phase2: JobResult

    @property
    def stats(self) -> JobStats:
        """Merged two-phase stats (Figure-2 buckets summed)."""
        merged_workers = []
        for w1, w2 in zip(self.phase1.stats.workers, self.phase2.stats.workers):
            m = WorkerStats(rank=w1.rank)
            for src in (w1, w2):
                for stage, secs in src.stage_seconds.items():
                    m.add(stage, secs)
                m.chunks_mapped += src.chunks_mapped
                m.chunks_stolen += src.chunks_stolen
                m.pairs_emitted_logical += src.pairs_emitted_logical
                m.bytes_h2d += src.bytes_h2d
                m.bytes_d2h += src.bytes_d2h
                m.bytes_sent_network += src.bytes_sent_network
                m.bytes_kept_local += src.bytes_kept_local
                m.shuffle_frames_sent += src.shuffle_frames_sent
            merged_workers.append(m)
        return JobStats(
            job_name="matmul",
            n_gpus=self.phase1.stats.n_gpus,
            elapsed=self.elapsed,
            workers=merged_workers,
            clock=self.phase1.stats.clock,
        )


def _phase2_chunks(dataset: MatrixDataset, phase1: JobResult) -> List[Chunk]:
    """Group phase-1 partial tiles by output key into phase-2 chunks.

    Chunks are emitted in key order so the runtime's round-robin
    distribution lands key ``k`` on rank ``k % P`` — where its partials
    already live after the phase-1 shuffle.
    """
    grid = dataset.grid
    partials: Dict[int, List[np.ndarray]] = {}
    for kv in phase1.outputs:
        if kv is None:
            continue
        for row in range(len(kv)):
            partials.setdefault(int(kv.keys[row]), []).append(kv.values[row])
    chunks = []
    p_per_key = dataset.k_groups
    for key in sorted(partials):
        stack = np.vstack(partials[key])
        chunks.append(
            Chunk(
                index=key,
                data=stack,
                logical_items=dataset.tile_elems,
                logical_bytes=p_per_key * dataset.tile_bytes,
                meta=key,
            )
        )
    assert len(chunks) == grid * grid, "every output tile needs partials"
    return chunks


def run_matmul(
    n_gpus: int,
    dataset: MatrixDataset,
    *,
    backend: str = "sim",
    schedule=None,
    **executor_kwargs,
) -> MMResult:
    """Run the full two-phase MM job; returns the assembled product.

    MM runs two MapReduce jobs, so its replay knob takes a *pair* of
    traces — ``schedule=(phase1_trace, phase2_trace)`` (either may be
    None to fall back to static placement for that phase).
    """
    if schedule is None:
        sched1 = sched2 = None
    elif isinstance(schedule, ScheduleTrace):
        # A bare trace would silently unpack as grants; fail loudly.
        raise TypeError(
            "MM runs two MapReduce jobs; pass "
            "schedule=(phase1_trace, phase2_trace), not a single trace"
        )
    else:
        sched1, sched2 = schedule
    ex = make_executor(backend, n_gpus, **executor_kwargs)
    phase1 = ex.run(mm_phase1_job(dataset), dataset, schedule=sched1)
    chunks = _phase2_chunks(dataset, phase1)
    phase2 = ex.run(mm_phase2_job(dataset), chunks=chunks, schedule=sched2)

    t = dataset.tile_actual
    grid = dataset.grid
    product = np.zeros((dataset.m_actual, dataset.m_actual), dtype=np.float32)
    for kv in phase2.outputs:
        if kv is None:
            continue
        for row in range(len(kv)):
            key = int(kv.keys[row])
            i, j = divmod(key, grid)
            product[i * t : (i + 1) * t, j * t : (j + 1) * t] = kv.values[row].reshape(
                t, t
            )
    return MMResult(
        product=product,
        elapsed=phase1.elapsed + phase2.elapsed,
        phase1=phase1,
        phase2=phase2,
    )


def mm_validate(result: MMResult, dataset: MatrixDataset) -> None:
    """Check the assembled product against the NumPy oracle."""
    np.testing.assert_allclose(
        result.product.astype(np.float64),
        dataset.reference_product().astype(np.float64),
        rtol=1e-4,
        atol=1e-4,
    )


# -- baseline descriptors ---------------------------------------------------

def mm_phoenix_workload(dataset: MatrixDataset):
    """Phoenix MM: one vector-vector map per output element with a naive
    triple loop — the paper observes "almost twenty seconds to multiply
    two 1024x1024 matrices" (~0.1 GFLOP/s, ~1% of node peak)."""
    from ..baselines.phoenix import PhoenixWorkload

    m = dataset.m
    return PhoenixWorkload(
        name="mm",
        n_items=m * m,
        map_flops_per_item=2.0 * m,
        map_bytes_per_item=8.0 * m,     # row + column touched per element
        emits_per_item=1.0,
        pair_bytes=12,
        n_unique_keys=m * m,
        reduce_flops_per_pair=0.0,
        flops_efficiency=0.011,          # cache-hostile column walks
        mem_efficiency=0.12,
        group_cost_per_pair=1e-8,        # MM has no real grouping phase
    )


def mm_mars_workload(dataset: MatrixDataset):
    """Mars MM: library-scheduled thread-per-element map — no
    shared-memory tiling is expressible under Mars's one-thread-per-item
    model, so each thread walks a row and a column from global memory
    (texture cache gives partial reuse).  MM results are written in
    place: no pair sort ("there is no Sort or Reduce")."""
    from ..baselines.mars import MarsWorkload

    m = dataset.m
    return MarsWorkload(
        name="mm",
        input_bytes=2 * m * m * 4,
        n_items=m * m,
        map_launches=[
            launch_1d(
                "mars_mm_map",
                m * m,
                flops_per_item=2.0 * m,
                # texture-cache reuse softens but cannot fix untiled reads
                read_bytes_per_item=4.0 * m * 0.25,
                write_bytes_per_item=4.0,
                coalescing=0.5,
                divergence=0.45,   # no MAD pipelining without tiling
            )
        ],
        n_pairs=m * m,
        pair_bytes=4,
        key_bits=32,
        sorts_pairs=False,
        reduce_launches=[],
        output_bytes=m * m * 4,
    )

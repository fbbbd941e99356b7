"""Linear Regression (LR) — paper Section 5.3.5.

Fits ``y = a*x + b`` over (x, y) pairs.  "LR is similar to KMC in many
ways and the same optimizations work well": persistent threads compute
the running relationship sums, accumulated atomic-free on the GPU; "the
Mapper emits only six keys upon completion, and thus we do not use
Partitioning (the network overhead is minimal in both cases)"; the
default sort and a key-per-thread reduce finish the job ("reduction
time is virtually nil").

The six keys are the classic sufficient statistics:
``n, sum(x), sum(y), sum(x^2), sum(y^2), sum(x*y)``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..baselines.phoenix import PhoenixWorkload
from ..core import (
    FusedMapper,
    KeyValueSet,
    MapReduceJob,
    Mapper,
    Reducer,
    SumAccumulator,
    make_executor,
)
from ..core.chunk import Chunk
from ..core.runtime import JobResult
from ..core.sorter import RadixSorter
from ..hw.kernel import KernelLaunch
from ..primitives import launch_1d, segmented_reduce
from ..workloads import RegressionDataset

__all__ = [
    "LRMapper",
    "FusedLRMapper",
    "NaiveLRMapper",
    "LRReducer",
    "LR_KEYS",
    "lr_job",
    "lr_dataset",
    "lr_extract_sums",
    "lr_fit",
    "lr_validate",
    "lr_phoenix_workload",
]

#: The six emitted keys, in key order.
LR_KEYS = ("n", "sx", "sy", "sxx", "syy", "sxy")


def _chunk_stats(data: np.ndarray) -> np.ndarray:
    """The six per-chunk sufficient statistics, in key order.

    Shared by the staged mapper and the fused kernel so both fold
    the exact same float64 values — the bit-parity contract.
    """
    x = data[:, 0].astype(np.float64)
    y = data[:, 1].astype(np.float64)
    return np.array(
        [
            float(len(x)),
            float(x.sum()),
            float(y.sum()),
            float((x * x).sum()),
            float((y * y).sum()),
            float((x * y).sum()),
        ],
        dtype=np.float64,
    )


class LRMapper(Mapper):
    """Persistent-thread sums of the six regression statistics."""

    scratch_bytes = 1 << 20  # per-block pools

    def map_chunk(self, chunk: Chunk) -> KeyValueSet:
        return KeyValueSet(
            keys=np.arange(6, dtype=np.uint32),
            values=_chunk_stats(chunk.data),
            scale=1.0,
        )

    def map_cost(self, chunk: Chunk) -> List[KernelLaunch]:
        n = chunk.logical_items
        return [
            launch_1d(
                "lr_map_persistent",
                n,
                flops_per_item=9.0,          # 3 mults + 5 adds + count
                read_bytes_per_item=8.0,      # x, y float32
                write_bytes_per_item=0.01,    # per-block pools
                items_per_thread=8,
                coalescing=1.0,
                syncs=1,
            )
        ]

    def output_bytes_estimate(self, chunk: Chunk) -> int:
        return 6 * 12


class FusedLRMapper(FusedMapper):
    """Map + accumulate in one call: the six-sum table never leaves
    the rank until finish.

    It folds :func:`_chunk_stats` into the resident table with the
    same element-wise add the accumulator performs (``np.add.at`` over
    the distinct keys 0..5), so it is bit-identical to the staged
    ``LRMapper + SumAccumulator`` pipeline.
    """

    def initial_state(self):
        return np.zeros(6, dtype=np.float64)

    def map_reduce_chunk(self, chunk: Chunk, state):
        state += _chunk_stats(chunk.data)
        return state, None

    def finish_state(self, state):
        return KeyValueSet(
            keys=np.arange(6, dtype=np.uint32), values=state, scale=1.0
        )


class NaiveLRMapper(Mapper):
    """The paper's straightforward LR port, kept for ablation A1.

    The direct CPU port: no persistent threads, no accumulation — each
    warp computes local sums and emits the six statistic pairs, so the
    intermediate pair set scales with the input (6 pairs per 32 points)
    and every pair crosses PCI-e and lands on the single reducer.  The
    paper reports "an almost order-of-magnitude speedup over a direct
    port of the typical CPU implementation".
    """

    scratch_bytes = 0
    WARP = 32

    def map_chunk(self, chunk: Chunk) -> KeyValueSet:
        x = chunk.data[:, 0].astype(np.float64)
        y = chunk.data[:, 1].astype(np.float64)
        n = len(x)
        n_warps = max(1, (n + self.WARP - 1) // self.WARP)
        stats = np.zeros((n_warps, 6), dtype=np.float64)
        warp_of = np.arange(n) // self.WARP
        np.add.at(stats[:, 0], warp_of, 1.0)
        np.add.at(stats[:, 1], warp_of, x)
        np.add.at(stats[:, 2], warp_of, y)
        np.add.at(stats[:, 3], warp_of, x * x)
        np.add.at(stats[:, 4], warp_of, y * y)
        np.add.at(stats[:, 5], warp_of, x * y)
        keys = np.tile(np.arange(6, dtype=np.uint32), n_warps)
        return KeyValueSet(keys=keys, values=stats.reshape(-1), scale=chunk.scale)

    def map_cost(self, chunk: Chunk) -> List[KernelLaunch]:
        n = chunk.logical_items
        return [
            launch_1d(
                "lr_map_naive",
                n,
                flops_per_item=9.0,
                read_bytes_per_item=8.0,
                write_bytes_per_item=12.0 * 6 / self.WARP,  # per-warp emits
                coalescing=0.3,                              # scattered emits
            )
        ]

    def output_bytes_estimate(self, chunk: Chunk) -> int:
        return chunk.logical_items * 12 * 6 // self.WARP


class LRReducer(Reducer):
    """Key-per-thread sums; six keys — 'reduction time is virtually nil'."""

    def reduce_segments(self, keys, values, offsets, counts, scale) -> KeyValueSet:
        sums = segmented_reduce(values, offsets)
        return KeyValueSet(keys=keys, values=sums, scale=scale)

    def reduce_cost(self, n_values: int, n_keys: int) -> List[KernelLaunch]:
        return [
            launch_1d(
                "lr_reduce",
                n_values,
                flops_per_item=1.0,
                read_bytes_per_item=12.0,
                write_bytes_per_item=12.0 * n_keys / max(n_values, 1),
                coalescing=0.5,
            )
        ]


def lr_dataset(
    n_points: int,
    chunk_points: int = 8 << 20,
    seed: int = 0,
    sample_factor: int = 1,
    slope: float = 2.5,
    intercept: float = -1.0,
) -> RegressionDataset:
    """The paper's LR input: 8-byte (x, y) float pairs."""
    return RegressionDataset(
        n_points=n_points,
        chunk_points=chunk_points,
        seed=seed,
        sample_factor=sample_factor,
        slope=slope,
        intercept=intercept,
    )


def lr_job(use_accumulation: bool = True) -> MapReduceJob:
    """The LR pipeline: accumulate on-GPU, no partitioner (six keys).

    ``use_accumulation=False`` selects the straightforward
    emit-per-point port for ablation A1.
    """
    return MapReduceJob(
        name="linear-regression" if use_accumulation else "linear-regression-naive",
        mapper=LRMapper() if use_accumulation else NaiveLRMapper(),
        reducer=LRReducer(),
        partitioner=None,   # all six keys to one reducer, per the paper
        accumulator=(
            SumAccumulator(6, value_dtype=np.float64, use_atomics=False)
            if use_accumulation
            else None
        ),
        # Fused analogue of the accumulation pipeline only; the naive
        # per-warp port has none.
        fused=FusedLRMapper() if use_accumulation else None,
        sorter=RadixSorter(key_bits=4),
        key_bytes=4,
        value_bytes=8,
        key_bits=4,
    )


def lr_extract_sums(result: JobResult) -> Dict[str, float]:
    """The six reduced statistics as a named dict."""
    merged = result.merged()
    table = np.zeros(6, dtype=np.float64)
    np.add.at(table, merged.keys.astype(np.int64), merged.values)
    return dict(zip(LR_KEYS, table.tolist()))


def lr_fit(result: JobResult) -> Tuple[float, float]:
    """Slope and intercept from a finished LR job."""
    from ..baselines.serial import regression_fit

    return regression_fit(lr_extract_sums(result))


def lr_validate(result: JobResult, dataset: RegressionDataset) -> None:
    """Check the six sums against the serial oracle (exact arithmetic)."""
    from ..baselines.serial import regression_sums

    expected = regression_sums(dataset)
    got = lr_extract_sums(result)
    for key in LR_KEYS:
        np.testing.assert_allclose(got[key], expected[key], rtol=1e-9)


# -- baseline descriptors ---------------------------------------------------

def lr_phoenix_workload(dataset: RegressionDataset) -> PhoenixWorkload:
    """Phoenix LR: per-point statistics with per-split local combine —
    emitted pair volume is tiny, the map loop dominates.  The paper
    measures GPMR at only ~1.3x: LR has so little math per byte that
    the CPU is nearly bandwidth-competitive."""
    return PhoenixWorkload(
        name="lr",
        n_items=dataset.n_points,
        map_flops_per_item=9.0,
        map_bytes_per_item=8.0,
        emits_per_item=24.0 / dataset.n_points,  # per-worker aggregates
        pair_bytes=12,
        n_unique_keys=6,
        reduce_flops_per_pair=1.0,
        flops_efficiency=0.22,   # scalar doubles, loop-carried sums
        group_cost_per_pair=5e-8,
    )


def run_lr(
    n_gpus: int,
    dataset: RegressionDataset,
    *,
    backend: str = "sim",
    schedule=None,
    use_accumulation: bool = True,
    **executor_kwargs,
) -> JobResult:
    """Convenience: run LR on ``n_gpus`` workers of ``backend``."""
    return make_executor(backend, n_gpus, **executor_kwargs).run(
        lr_job(use_accumulation=use_accumulation), dataset, schedule=schedule
    )

"""Sparse Integer Occurrence (SIO) — paper Section 5.3.2.

Counts occurrences of each integer in a uniformly random sequence.
Implementation choices follow the paper exactly:

* the mapper reads **two integers per thread** ("to efficiently access
  GPU memory") and emits ``<I, 1>`` per integer;
* **no Partial Reduction or Accumulation** ("they yield no speedup with
  our intermediate data") and **no Combine** ("it causes slowdown") —
  sparse keys do not compact;
* default round-robin partitioner and default radix sort;
* the reducer is **one key per thread**, summing its values ("our
  final and best implementation of the reducer is the same as the CPU
  approach") — the block-per-key variant lost because most keys have
  fewer than five values.

SIO stresses "many key-value pairs": intermediate data is 2x the input
and cannot shrink, so the job rides the PCI-e bus, the network, and the
sort.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from ..baselines.phoenix import PhoenixWorkload
from ..core import (
    FusedMapper,
    KeyValueSet,
    MapReduceJob,
    Mapper,
    Reducer,
    RoundRobinPartitioner,
    make_executor,
)
from ..core.combine import combine_by_key_sum
from ..core.chunk import Chunk
from ..core.runtime import JobResult
from ..hw.kernel import KernelLaunch
from ..primitives import launch_1d, segmented_reduce, uniform_element
from ..workloads import IntegerDataset

__all__ = [
    "SIOMapper",
    "FusedSIOMapper",
    "SIOReducer",
    "sio_job",
    "sio_dataset",
    "sio_validate",
    "sio_phoenix_workload",
]

PAIR_BYTES = 8  # 4-byte key + 4-byte count


class SIOMapper(Mapper):
    """Each thread reads two integers and emits ``<I, 1>`` for each.

    ``sleep_per_chunk`` (seconds, default 0) is a load-balancing test
    hook: an artificial per-chunk delay that widens the window in which
    idle peers can steal from a loaded rank.  It slows the *functional*
    map only — the modeled kernel cost is unchanged.

    The emission costs no pass over the chunk: the keys *are* the
    chunk's ``uint32`` payload (no copy — nothing downstream writes
    into emitted keys) and the ``1``s are a uniform column (see
    :mod:`repro.core.kvset`), which is read-only and stays one element
    through partition, wire, sort and reduce.
    """

    def __init__(self, sleep_per_chunk: float = 0.0) -> None:
        self.sleep_per_chunk = float(sleep_per_chunk)

    def map_chunk(self, chunk: Chunk) -> KeyValueSet:
        if self.sleep_per_chunk:
            time.sleep(self.sleep_per_chunk)
        data = chunk.data
        return KeyValueSet(
            keys=data.astype(np.uint32, copy=False),
            values=np.broadcast_to(np.int32(1), (len(data),)),
            scale=chunk.scale,
        )

    def map_cost(self, chunk: Chunk) -> List[KernelLaunch]:
        n = chunk.logical_items
        return [
            launch_1d(
                "sio_map",
                n,
                flops_per_item=1.0,
                read_bytes_per_item=4.0,
                write_bytes_per_item=8.0,   # key + value out
                items_per_thread=2,          # two integers per thread
                coalescing=1.0,
            )
        ]

    def output_bytes_estimate(self, chunk: Chunk) -> int:
        return chunk.logical_items * PAIR_BYTES


class FusedSIOMapper(FusedMapper):
    """Map + per-chunk combine in one call: sort/compact each chunk's
    pairs before they leave the map kernel.

    SIO carries no rank-resident state (sparse keys do not compact
    across chunks — the paper's reason for skipping Accumulation), so
    the fusion win is *emission volume*: like keys inside a chunk merge
    before partitioning, shrinking shuffle bytes while the reducer's
    integer sums stay exact.  It delegates to the staged mapper
    (honouring its ``sleep_per_chunk`` hook) and the vectorised combine
    oracle.  ``key_bits`` records the job's key width.
    """

    def __init__(self, mapper: SIOMapper, key_bits: int) -> None:
        self.mapper = mapper
        self.key_bits = int(key_bits)

    def map_reduce_chunk(self, chunk: Chunk, state):
        kv = self.mapper.map_chunk(chunk)
        if len(kv) == 0:
            return state, None
        return state, combine_by_key_sum(kv)


class SIOReducer(Reducer):
    """One key per thread; the thread sums all its values."""

    def reduce_segments(self, keys, values, offsets, counts, scale) -> KeyValueSet:
        element = uniform_element(values)
        if element is None:
            sums = segmented_reduce(values.astype(np.int64), offsets)
        else:
            # Every value is ``element``: ``counts`` already is the sum.
            sums = counts.astype(np.int64, copy=False) * element.astype(np.int64)
        return KeyValueSet(keys=keys, values=sums, scale=scale)

    def reduce_cost(self, n_values: int, n_keys: int) -> List[KernelLaunch]:
        return [
            launch_1d(
                "sio_reduce",
                n_values,
                flops_per_item=1.0,
                read_bytes_per_item=4.0,
                write_bytes_per_item=8.0 * n_keys / max(n_values, 1),
                # Thread-per-key reads its run serially: uncoalesced.
                coalescing=0.25,
                divergence=0.8,  # variable run lengths
            )
        ]


def sio_dataset(
    n_elements: int,
    chunk_elements: int = 16 << 20,
    key_space: int = 1 << 28,
    seed: int = 0,
    sample_factor: int = 1,
) -> IntegerDataset:
    """The paper's SIO input: uniform random 4-byte integers."""
    return IntegerDataset(
        n_elements=n_elements,
        chunk_elements=chunk_elements,
        key_space=key_space,
        seed=seed,
        sample_factor=sample_factor,
    )


def sio_job(key_space: int = 1 << 28, map_sleep_seconds: float = 0.0) -> MapReduceJob:
    """The SIO pipeline: plain map -> partition -> sort -> reduce.

    ``map_sleep_seconds`` feeds :class:`SIOMapper`'s per-chunk delay
    hook (load-balancing tests only; 0 for real runs).
    """
    mapper = SIOMapper(sleep_per_chunk=map_sleep_seconds)
    key_bits = max(int(np.ceil(np.log2(key_space))), 1)
    return MapReduceJob(
        name="sparse-integer-occurrence",
        mapper=mapper,
        reducer=SIOReducer(),
        partitioner=RoundRobinPartitioner(),
        # Per-chunk combine fusion: like keys merge before the shuffle.
        fused=FusedSIOMapper(mapper, key_bits),
        key_bytes=4,
        value_bytes=4,
        key_bits=key_bits,
    )


def sio_validate(result: JobResult, dataset: IntegerDataset) -> None:
    """Check GPMR's counts against the dense bincount oracle."""
    from ..baselines.serial import integer_counts

    expected = integer_counts(dataset)
    got = np.zeros(dataset.key_space, dtype=np.int64)
    merged = result.merged()
    np.add.at(got, merged.keys.astype(np.int64), merged.values.astype(np.int64))
    np.testing.assert_array_equal(got, expected)


# -- baseline descriptors -----------------------------------------------------

def sio_phoenix_workload(dataset: IntegerDataset) -> PhoenixWorkload:
    """Phoenix SIO: per-item emit through the runtime's function-pointer
    API, hash-table grouping per pair — grouping dominates."""
    return PhoenixWorkload(
        name="sio",
        n_items=dataset.n_elements,
        map_flops_per_item=2.0,
        map_bytes_per_item=4.0,
        emits_per_item=1.0,
        pair_bytes=PAIR_BYTES,
        n_unique_keys=min(dataset.n_elements, dataset.key_space),
        reduce_flops_per_pair=1.0,
        flops_efficiency=0.5,
        group_cost_per_pair=6e-8,
    )


def run_sio(
    n_gpus: int,
    dataset: IntegerDataset,
    *,
    backend: str = "sim",
    schedule=None,
    **executor_kwargs,
) -> JobResult:
    """Convenience: run SIO on ``n_gpus`` workers of ``backend``."""
    return make_executor(backend, n_gpus, **executor_kwargs).run(
        sio_job(dataset.key_space), dataset, schedule=schedule
    )

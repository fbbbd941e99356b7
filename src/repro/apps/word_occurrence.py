"""Word Occurrence (WO) — paper Section 5.3.3.

Counts word occurrences in random dictionary text.  The paper's design
decisions, all reproduced here:

* strings must not be GPU keys: a **minimal perfect hash** maps each of
  the 43k dictionary words to a unique 4-byte integer;
* the mapper gives each thread one line of text, scans for words, and
  emits ``<hash(W), 1>`` — with **Accumulation**: an initial map emits
  all 43k keys with value 0, then every emission is a "fire-and-forget
  atomic" increment into the resident table, almost eliminating
  communication;
* **no partitioner below a GPU-count threshold** (a single reduce
  kernel handles 43k keys), switching to the default round-robin
  partitioner "once the number of GPUs crosses a certain threshold";
* the reducer assigns each key to a **warp** (not a thread): the warp
  reads its value run coalesced and finishes with a warp-wide
  reduction, an order of magnitude faster than thread-per-key — both
  variants are implemented for the ablation bench.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

import numpy as np

from ..core import (
    KeyValueSet,
    MapReduceJob,
    Mapper,
    Reducer,
    RoundRobinPartitioner,
    SumAccumulator,
    make_executor,
)
from ..core.chunk import Chunk
from ..core.executor import JobResult
from ..core.sorter import RadixSorter
from ..hashing import MinimalPerfectHash, segmented_poly_hashes
from ..hw.kernel import KernelLaunch
from ..primitives import launch_1d, segmented_reduce
from ..workloads import DICTIONARY_WORDS, TextDataset, build_dictionary, tokenize

__all__ = [
    "WOMapper",
    "WOWarpReducer",
    "WOThreadReducer",
    "wo_mph",
    "wo_job",
    "wo_dataset",
    "wo_validate",
    "wo_phoenix_workload",
    "wo_mars_workload",
    "PARTITIONER_THRESHOLD",
]

PAIR_BYTES = 8          # 4-byte hash key + 4-byte count
MEAN_WORD_CHARS = 6.7   # dictionary average word length + separator

#: GPU count beyond which the round-robin partitioner is enabled
#: ("once the number of GPUs crosses a certain threshold, key-value
#: pair communication bottlenecks the job").
PARTITIONER_THRESHOLD = 8


@lru_cache(maxsize=2)
def wo_mph(n_words: int = DICTIONARY_WORDS) -> MinimalPerfectHash:
    """The job's minimal perfect hash over the corpus dictionary."""
    return MinimalPerfectHash.build(list(build_dictionary(n_words)))


class WOMapper(Mapper):
    """Line-per-thread scan, MPH hash, atomic-increment emissions."""

    def __init__(self, mph: MinimalPerfectHash) -> None:
        self.mph = mph
        # The displacement table ships to the GPU once per chunk batch.
        self.scratch_bytes = mph.table_bytes

    def map_chunk(self, chunk: Chunk) -> KeyValueSet:
        text = chunk.data
        starts, lengths = tokenize(text)
        if len(starts) == 0:
            return KeyValueSet.empty(value_dtype=np.int64, scale=chunk.scale)
        hashes = segmented_poly_hashes(text, starts, lengths)
        slots = self.mph.lookup_hashes(hashes)
        # ``<slot, 1>`` stays materialised: at ~18 k emissions a chunk,
        # the accumulator's ``np.add.at`` costs what a uniform column's
        # ``bincount`` would (see repro.core.kvset); the hash costs more.
        return KeyValueSet(
            keys=slots.astype(np.uint32),
            values=np.ones(len(slots), dtype=np.int64),
            scale=chunk.scale,
        )

    def map_cost(self, chunk: Chunk) -> List[KernelLaunch]:
        n_chars = chunk.logical_items
        n_words = int(n_chars / MEAN_WORD_CHARS)
        return [
            launch_1d(
                "wo_map_scan_hash",
                n_chars,
                flops_per_item=4.0,          # scan + 3 poly-hash streams
                read_bytes_per_item=1.0,
                write_bytes_per_item=0.0,    # emissions are atomics (below)
                items_per_thread=96,          # one line of text per thread
                coalescing=0.5,               # threads start at line offsets
                divergence=0.7,               # variable word/line lengths
            ),
            launch_1d(
                "wo_emit_atomics",
                n_words,
                flops_per_item=1.0,
                read_bytes_per_item=4.0,      # MPH displacement lookup
                atomics_per_item=1.0,         # fire-and-forget increment
                atomic_conflict=1.2,          # 43k counters: rare collisions
            ),
        ]

    def output_bytes_estimate(self, chunk: Chunk) -> int:
        # Emissions go straight into the accumulator table; transient
        # buffers only hold per-block staging.
        return 1 << 20


class WOWarpReducer(Reducer):
    """Warp-per-key: coalesced value reads + warp-wide reduction."""

    def reduce_segments(self, keys, values, offsets, counts, scale) -> KeyValueSet:
        sums = segmented_reduce(values.astype(np.int64), offsets)
        return KeyValueSet(keys=keys, values=sums, scale=scale)

    def reduce_cost(self, n_values: int, n_keys: int) -> List[KernelLaunch]:
        return [
            launch_1d(
                "wo_reduce_warp",
                n_values,
                flops_per_item=1.0,
                read_bytes_per_item=8.0,
                write_bytes_per_item=8.0 * n_keys / max(n_values, 1),
                coalescing=1.0,     # the whole point of warp-per-key
                items_per_thread=1,
                syncs=1,            # warp-wide reduction epilogue
            )
        ]


class WOThreadReducer(Reducer):
    """Thread-per-key: the paper's first, slower attempt (ablation A4).

    "The reads are not coalesced, and each thread has to wait a
    (relatively) long time for each read to finish."
    """

    def reduce_segments(self, keys, values, offsets, counts, scale) -> KeyValueSet:
        sums = segmented_reduce(values.astype(np.int64), offsets)
        return KeyValueSet(keys=keys, values=sums, scale=scale)

    def reduce_cost(self, n_values: int, n_keys: int) -> List[KernelLaunch]:
        return [
            launch_1d(
                "wo_reduce_thread",
                n_values,
                flops_per_item=1.0,
                read_bytes_per_item=8.0,
                write_bytes_per_item=8.0 * n_keys / max(n_values, 1),
                coalescing=0.08,    # serial strided reads per thread
                divergence=0.6,
            )
        ]


def wo_dataset(
    n_chars: int,
    chunk_chars: int = 8 << 20,   # "each chunk contains millions of bytes"
    seed: int = 0,
    sample_factor: int = 1,
    n_words: int = DICTIONARY_WORDS,
) -> TextDataset:
    """The paper's WO input: random dictionary text, 1-byte elements."""
    return TextDataset(
        n_chars=n_chars,
        chunk_chars=chunk_chars,
        n_words=n_words,
        seed=seed,
        sample_factor=sample_factor,
    )


def wo_job(
    n_gpus: int,
    n_words: int = DICTIONARY_WORDS,
    use_accumulation: bool = True,
    warp_reducer: bool = True,
    partitioner_threshold: int = PARTITIONER_THRESHOLD,
) -> MapReduceJob:
    """The WO pipeline, with the paper's GPU-count-dependent partitioner.

    ``use_accumulation=False`` reproduces the pre-Accumulation variant
    the paper describes as dramatically worse (ablation A1).
    """
    mph = wo_mph(n_words)
    partitioner = (
        RoundRobinPartitioner() if n_gpus > partitioner_threshold else None
    )
    reducer = WOWarpReducer() if warp_reducer else WOThreadReducer()
    key_bits = max(int(np.ceil(np.log2(n_words))) + 1, 8)
    return MapReduceJob(
        name="word-occurrence",
        mapper=WOMapper(mph),
        reducer=reducer,
        partitioner=partitioner,
        accumulator=(
            SumAccumulator(n_words, value_dtype=np.int64, use_atomics=True)
            if use_accumulation
            else None
        ),
        sorter=RadixSorter(key_bits=key_bits),
        key_bytes=4,
        value_bytes=4,
        key_bits=key_bits,
    )


def wo_validate(result: JobResult, dataset: TextDataset) -> None:
    """Check counts against the MPH-slot oracle over the sampled corpus."""
    from ..baselines.serial import word_counts

    mph = wo_mph(len(dataset.dictionary))
    expected = word_counts(dataset, mph)
    got = np.zeros(mph.n, dtype=np.int64)
    merged = result.merged()
    np.add.at(got, merged.keys.astype(np.int64), merged.values.astype(np.int64))
    np.testing.assert_array_equal(got, expected)


# -- baseline descriptors ---------------------------------------------------

def wo_phoenix_workload(dataset: TextDataset):
    """Phoenix WO: per-word emit + hash grouping; string handling on the
    CPU is byte-at-a-time, so the map is latency-heavy."""
    from ..baselines.phoenix import PhoenixWorkload

    return PhoenixWorkload(
        name="wo",
        n_items=dataset.n_chars,
        map_flops_per_item=4.0,      # scan + hash per character
        map_bytes_per_item=1.0,
        emits_per_item=1.0 / MEAN_WORD_CHARS,
        pair_bytes=PAIR_BYTES + 8,   # Phoenix keeps word pointers too
        n_unique_keys=len(dataset.dictionary),
        reduce_flops_per_pair=1.0,
        flops_efficiency=0.06,       # byte-wise scanning, branchy
        group_cost_per_pair=1.5e-7,  # string compare + realloc on hash hit
    )


def wo_mars_workload(dataset: TextDataset):
    """Mars WO: two-pass map over the text, then a bitonic sort of one
    pair per word (no accumulation support)."""
    from ..baselines.mars import MarsWorkload

    n_chars = dataset.n_chars
    n_words = dataset.words_in_logical_chars(n_chars)
    return MarsWorkload(
        name="wo",
        input_bytes=n_chars,
        n_items=n_words,
        map_launches=[
            launch_1d(
                "mars_wo_map",
                n_chars,
                flops_per_item=4.0,
                read_bytes_per_item=1.0,
                write_bytes_per_item=(PAIR_BYTES + 8) / MEAN_WORD_CHARS,
                items_per_thread=96,
                coalescing=0.5,
                divergence=0.7,
            )
        ],
        n_pairs=n_words,
        pair_bytes=PAIR_BYTES + 8,
        key_bits=32,
        reduce_launches=[
            launch_1d(
                "mars_wo_reduce",
                n_words,
                flops_per_item=1.0,
                read_bytes_per_item=float(PAIR_BYTES),
                coalescing=0.25,
            )
        ],
        output_bytes=len(dataset.dictionary) * PAIR_BYTES,
    )


def run_wo(
    n_gpus: int,
    dataset: TextDataset,
    *,
    backend: str = "sim",
    schedule=None,
    use_accumulation: bool = True,
    warp_reducer: bool = True,
    partitioner_threshold: int = PARTITIONER_THRESHOLD,
    **executor_kwargs,
) -> JobResult:
    """Convenience: run WO on ``n_gpus`` workers of ``backend``.

    The uniform runner signature shared by every app: ``backend`` /
    ``schedule`` plus WO's own :func:`wo_job` knobs as keywords, with
    ``**executor_kwargs`` going to the backend factory verbatim.
    """
    job = wo_job(
        n_gpus,
        n_words=len(dataset.dictionary),
        use_accumulation=use_accumulation,
        warp_reducer=warp_reducer,
        partitioner_threshold=partitioner_threshold,
    )
    return make_executor(backend, n_gpus, **executor_kwargs).run(
        job, dataset, schedule=schedule
    )

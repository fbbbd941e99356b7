#!/usr/bin/env python
"""Writing your own GPMR application: a log-histogram job.

Demonstrates the extension surface the paper emphasises — "every part
of the MapReduce pipeline is programmable by the user": a custom
Mapper (with its kernel cost descriptor), a custom Partitioner (block
ranges instead of round-robin), a Partial Reducer to shrink traffic,
and a Reducer.  The job buckets synthetic web-server response times
into a latency histogram.

    python examples/custom_app.py
"""

import numpy as np

from repro.core import (
    Chunk,
    KeyValueSet,
    MapReduceJob,
    Mapper,
    BlockPartitioner,
    Reducer,
    SumPartialReducer,
    make_executor,
)
from repro.primitives import launch_1d, segmented_reduce
from repro.workloads.base import Dataset, WorkItem
from repro.util.rng import generator

N_BUCKETS = 256  # logarithmic latency buckets


class LatencyDataset(Dataset):
    """Synthetic response times: log-normal with a heavy tail."""

    def __init__(self, n_events: int, chunk_events: int = 1 << 20, seed: int = 0):
        super().__init__(seed)
        self.n_events = n_events
        self.chunk_events = chunk_events

    @property
    def n_chunks(self) -> int:
        return -(-self.n_events // self.chunk_events)

    def chunk(self, index: int) -> WorkItem:
        self._check_index(index)
        lo = index * self.chunk_events
        n = min(self.chunk_events, self.n_events - lo)
        rng = generator(self.seed, stream=(index,))
        millis = rng.lognormal(mean=3.0, sigma=0.9, size=n).astype(np.float32)
        return WorkItem(index=index, data=millis, logical_items=n, logical_bytes=n * 4)


class BucketMapper(Mapper):
    """Map each latency to its log2 bucket, emitting <bucket, 1>."""

    def map_chunk(self, chunk: Chunk) -> KeyValueSet:
        millis = chunk.data
        buckets = np.clip(
            (np.log2(np.maximum(millis, 1e-3)) * 16 + 128).astype(np.int64),
            0,
            N_BUCKETS - 1,
        )
        return KeyValueSet(
            keys=buckets.astype(np.uint32),
            values=np.ones(len(buckets), dtype=np.int64),
            scale=chunk.scale,
        )

    def map_cost(self, chunk: Chunk):
        return [
            launch_1d(
                "latency_bucket",
                chunk.logical_items,
                flops_per_item=8.0,       # log2 + scale + clamp
                read_bytes_per_item=4.0,
                write_bytes_per_item=8.0,
            )
        ]


class HistogramReducer(Reducer):
    """Sum each bucket's partial counts."""

    def reduce_segments(self, keys, values, offsets, counts, scale) -> KeyValueSet:
        sums = segmented_reduce(values.astype(np.int64), offsets)
        return KeyValueSet(keys=keys, values=sums, scale=scale)

    def reduce_cost(self, n_values, n_keys):
        return [
            launch_1d(
                "histogram_reduce",
                n_values,
                flops_per_item=1.0,
                read_bytes_per_item=8.0,
            )
        ]


def main() -> None:
    dataset = LatencyDataset(n_events=8 << 20, seed=11)
    job = MapReduceJob(
        name="latency-histogram",
        mapper=BucketMapper(),
        reducer=HistogramReducer(),
        # Block partitioner: each rank owns a contiguous latency range,
        # so percentile queries stay rank-local.
        partitioner=BlockPartitioner(key_space=N_BUCKETS),
        # Only 256 distinct keys per chunk: partial reduction collapses
        # each chunk's million pairs to <=256 before the PCI-e transfer.
        partial_reducer=SumPartialReducer(),
        key_bytes=4,
        value_bytes=8,
        key_bits=8,
    )

    result = make_executor("sim", 4).run(job, dataset)
    merged = result.merged()
    hist = np.zeros(N_BUCKETS, dtype=np.int64)
    np.add.at(hist, merged.keys.astype(np.int64), merged.values.astype(np.int64))

    total = int(hist.sum())
    cdf = np.cumsum(hist) / total
    print(f"Histogrammed {total:,d} events on 4 simulated GPUs "
          f"in {result.elapsed * 1e3:.2f} ms simulated")
    for pct in (50, 90, 99, 99.9):
        bucket = int(np.searchsorted(cdf, pct / 100))
        latency = 2 ** ((bucket - 128) / 16)
        print(f"  p{pct:<5}: ~{latency:8.1f} ms  (bucket {bucket})")

    shuffled = result.stats.total_network_bytes
    print(f"\nNetwork traffic after partial reduction: {shuffled / 1e3:.1f} kB "
          f"(vs ~{8 * (8 << 20) / 1e6:.0f} MB without)")


if __name__ == "__main__":
    main()

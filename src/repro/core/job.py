"""Job specification: mapper + optional substages, validated.

The legal pipeline shapes follow the paper's Section 4.1 "Map
Pipeline" summary:

* Accumulation excludes Partial Reduce *and* Combine;
* Partial Reduce and Combine may coexist (partial per chunk, combine
  at the end), but Combine defers binning until all maps finish;
* no Partitioner means a single reducer (rank 0) receives everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from .combine import Accumulator, Combiner, PartialReducer
from .config import PipelineConfig
from .kvset import KeyValueSet
from .mapper import Mapper
from .partitioner import Partitioner
from .reducer import Reducer
from .sorter import RadixSorter, Sorter

__all__ = ["MapReduceJob"]


@dataclass
class MapReduceJob:
    """A complete GPMR job description."""

    name: str
    mapper: Mapper
    reducer: Optional[Reducer] = None
    partitioner: Optional[Partitioner] = None
    combiner: Optional[Combiner] = None
    partial_reducer: Optional[PartialReducer] = None
    accumulator: Optional[Accumulator] = None
    sorter: Sorter = field(default_factory=RadixSorter)
    #: the per-chunk fold a fused run applies right after the map when
    #: the job has no accumulator (a job with one folds into it).  Used
    #: only when the executor (or config) asks for ``fused=True``.
    fused: Optional[PartialReducer] = None
    config: PipelineConfig = field(default_factory=PipelineConfig)
    #: key width on the wire (GPMR keys are 4-byte integers by default)
    key_bytes: int = 4
    #: value width on the wire per pair
    value_bytes: int = 4
    #: maximum significant key bits (drives radix pass count)
    key_bits: int = 32

    def __post_init__(self) -> None:
        if self.accumulator is not None and self.partial_reducer is not None:
            raise ValueError(
                "Accumulation and Partial Reduction are mutually exclusive "
                "(paper Section 3)"
            )
        if self.accumulator is not None and self.combiner is not None:
            raise ValueError(
                "Accumulation eliminates the need for Combine and they cannot "
                "be used together (paper Section 4.1)"
            )
        if self.key_bytes <= 0 or self.value_bytes <= 0:
            raise ValueError("key/value byte widths must be positive")
        if not (1 <= self.key_bits <= 64):
            raise ValueError("key_bits must be in [1, 64]")
        if self.config.skip_sort_reduce and self.reducer is not None:
            raise ValueError("skip_sort_reduce jobs must not declare a reducer")
        if self.fused is not None and self.combiner is not None:
            raise ValueError(
                "a fused kernel subsumes Combine (its fold already reduces "
                "before partitioning); attach one or the other"
            )
        if self.fused is not None and self.accumulator is not None:
            raise ValueError(
                "a fused run of an accumulating job folds into its "
                "accumulator; attach a fused fold or an accumulator, not both"
            )
        if self.config.fused and self.accumulator is None and self.fused is None:
            raise ValueError(
                "config.fused=True but the job has no fused kernel attached "
                "(it needs an accumulator or a per-chunk fold to fuse)"
            )

    @property
    def pair_bytes(self) -> int:
        return self.key_bytes + self.value_bytes

    def partition_parts(self, kv: KeyValueSet, n_parts: int) -> List[KeyValueSet]:
        """The functional half of Partition: one part per reducer rank.

        This is the single definition of pair routing shared by every
        execution backend: with a partitioner, pairs split by per-pair
        destination; without one, everything goes to rank 0 ("all pairs
        are sent to a single Reducer", paper Section 4.1).
        """
        if self.partitioner is not None:
            dest = self.partitioner.partition(kv, n_parts)
            return kv.split_by(dest, n_parts)
        return [
            kv if d == 0 else KeyValueSet.empty(scale=kv.scale)
            for d in range(n_parts)
        ]

    def with_config(self, **changes) -> "MapReduceJob":
        """A copy of this job with ``PipelineConfig`` fields replaced."""
        return replace(self, config=replace(self.config, **changes))

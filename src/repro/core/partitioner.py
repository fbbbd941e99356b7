"""Partitioners: route key-value pairs to reducer ranks.

"The Partition substage divides key-value pairs into buckets to be
sent to each Reducer ... We supply a default round-robin Partitioner
for integer keys.  But we made the Partitioner extensible" (paper
Section 4.1).  Omitting the partitioner sends everything to rank 0,
matching "if the user omits Partition, all pairs are sent to a single
Reducer".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

import numpy as np

from .kvset import KeyValueSet
from ..hw.kernel import KernelLaunch
from ..primitives import launch_1d

__all__ = ["Partitioner", "RoundRobinPartitioner", "BlockPartitioner", "HashPartitioner"]


class Partitioner(ABC):
    """Base class: assigns each pair a destination reducer rank."""

    @abstractmethod
    def partition(self, kv: KeyValueSet, n_parts: int) -> np.ndarray:
        """Per-pair destination rank in ``[0, n_parts)`` (functional)."""

    def partition_cost(self, n_pairs: int, total_bytes: float) -> List[KernelLaunch]:
        """Default temporal price: one bucketing pass over the pair set.

        Priced per 4-byte word of ``total_bytes`` moved, not per pair: a
        pair may be a multi-megabyte record (MM's tile values), and the
        GPU parallelises the scatter over words regardless of where the
        record boundaries fall.
        """
        words = max(1, int(total_bytes / 4))
        dest_flops = 2.0 * n_pairs / words  # one dest computation per pair
        return [
            launch_1d(
                "partition",
                words,
                flops_per_item=dest_flops,
                read_bytes_per_item=4.0,
                write_bytes_per_item=4.0,
                coalescing=0.5,  # scatter into buckets
            )
        ]


class RoundRobinPartitioner(Partitioner):
    """The paper's default for integer keys: ``key % n_parts``.

    For a power-of-two ``n_parts`` the ids are ``key & (n_parts - 1)``,
    several times cheaper than the division and the same ids: NumPy's
    ``%`` is a floor modulo, which for a power of two is the low bits
    of the two's-complement key, negative keys included.
    """

    def partition(self, kv: KeyValueSet, n_parts: int) -> np.ndarray:
        keys = kv.keys
        if n_parts <= np.iinfo(keys.dtype).max:
            # In the keys' own dtype: no 8-byte temporaries per 4-byte
            # key (split_by takes any integer id dtype).
            if n_parts & (n_parts - 1) == 0:
                return keys & keys.dtype.type(n_parts - 1)
            return keys % keys.dtype.type(n_parts)
        return (keys % np.uint64(n_parts)).astype(np.int64)


class BlockPartitioner(Partitioner):
    """Consecutive key blocks: rank = key * n_parts // key_space.

    The alternative distribution the paper mentions ("round-robin vs.
    consecutive blocks") — better when reduction work is range-local.
    """

    def __init__(self, key_space: int) -> None:
        if key_space <= 0:
            raise ValueError("key_space must be positive")
        self.key_space = int(key_space)

    def partition(self, kv: KeyValueSet, n_parts: int) -> np.ndarray:
        k = kv.keys.astype(np.uint64)
        dest = (k * np.uint64(n_parts)) // np.uint64(self.key_space)
        return np.minimum(dest, n_parts - 1).astype(np.int64)


class HashPartitioner(Partitioner):
    """Multiplicative-hash partitioner for clustered/skewed key sets."""

    _MULT = np.uint64(0x9E3779B97F4A7C15)

    def partition(self, kv: KeyValueSet, n_parts: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            mixed = (kv.keys.astype(np.uint64) * self._MULT) >> np.uint64(32)
        return (mixed % np.uint64(n_parts)).astype(np.int64)

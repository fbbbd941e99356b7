"""The communication-reducing map substages: Combine, Partial Reduce,
Accumulate.

These are the paper's core pipeline extensions (Section 3):

* **PartialReducer** — runs on the GPU right after each chunk's map,
  merging like-keyed pairs *within the chunk* before the PCI-e
  transfer.  Best when the final key set is large.
* **Accumulator** — a persistent on-GPU key-value state each map kernel
  merges into; only transferred once, after all maps.  Best when the
  final key set is small.  Mutually exclusive with PartialReducer.
* **Combiner** — after *all* maps complete, like-keyed pairs buffered
  in CPU memory are streamed back through the GPU and combined so each
  node sends one value per key ("unlike in Hadoop, Combine happens only
  when all Maps complete in order to minimize network traffic").

Concrete associative-operator implementations (sum et al.) are provided
since every paper benchmark combines with addition.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

import numpy as np

from .kvset import KeyValueSet
from ..hw.kernel import KernelLaunch
from ..primitives import (
    launch_1d,
    radix_sort_cost,
    radix_sort_pairs,
    segmented_reduce,
    segmented_reduce_cost,
    unique_segments,
)

__all__ = [
    "PartialReducer",
    "Combiner",
    "Accumulator",
    "SumPartialReducer",
    "SumCombiner",
    "SumAccumulator",
    "combine_by_key_sum",
]


def combine_by_key_sum(kv: KeyValueSet) -> KeyValueSet:
    """Merge like-keyed pairs by summing values (vectorised oracle).

    Works for scalar values and fixed-width records; output keys are
    ascending.
    """
    if len(kv) == 0:
        return kv
    keys, values = radix_sort_pairs(kv.keys, kv.values)
    runs = unique_segments(keys)
    if values.ndim == 1:
        summed = segmented_reduce(values, runs.offsets)
    else:
        cols = [segmented_reduce(values[:, c], runs.offsets) for c in range(values.shape[1])]
        summed = np.column_stack(cols)
    return KeyValueSet(keys=runs.unique_keys, values=summed, scale=kv.scale)


# ---------------------------------------------------------------------------
# Partial Reduce
# ---------------------------------------------------------------------------

class PartialReducer(ABC):
    """On-GPU, per-chunk merge of like-keyed pairs before the transfer."""

    @abstractmethod
    def partial_reduce(self, kv: KeyValueSet) -> KeyValueSet:
        """Functional merge of one chunk's pairs."""

    @abstractmethod
    def partial_reduce_cost(self, n_pairs: int, n_unique: int, pair_bytes: int) -> List[KernelLaunch]:
        """Launches, priced at logical pair counts."""


class SumPartialReducer(PartialReducer):
    """Partial reduction with addition (sort + segmented sum on GPU)."""

    def partial_reduce(self, kv: KeyValueSet) -> KeyValueSet:
        return combine_by_key_sum(kv)

    def partial_reduce_cost(self, n_pairs: int, n_unique: int, pair_bytes: int) -> List[KernelLaunch]:
        key_bits = max(int(np.ceil(np.log2(max(n_unique, 2)))) + 1, 8)
        launches = radix_sort_cost(
            n_pairs, key_bits=key_bits, key_bytes=4, value_bytes=max(pair_bytes - 4, 0)
        )
        launches.append(
            segmented_reduce_cost(n_pairs, max(n_unique, 1), itemsize=max(pair_bytes - 4, 4))
        )
        return launches


# ---------------------------------------------------------------------------
# Combine
# ---------------------------------------------------------------------------

class Combiner(ABC):
    """Post-map, pre-partition merge of all buffered pairs on one rank."""

    @abstractmethod
    def combine(self, kv: KeyValueSet) -> KeyValueSet:
        """Functional merge of the rank's full buffered pair set."""

    @abstractmethod
    def combine_cost(self, n_pairs: int, n_unique: int, pair_bytes: int) -> List[KernelLaunch]:
        """Launches for combining (priced at logical counts)."""


class SumCombiner(Combiner):
    """Combine with addition (the classic word-count combiner): the same
    sort + segmented sum as :class:`SumPartialReducer`, run once over the
    rank's buffered pairs instead of once per chunk."""

    combine = SumPartialReducer.partial_reduce
    combine_cost = SumPartialReducer.partial_reduce_cost


# ---------------------------------------------------------------------------
# Accumulate
# ---------------------------------------------------------------------------

class Accumulator(ABC):
    """Persistent on-GPU key-value state merged into by every map.

    The pipeline calls :meth:`initial_state` once per worker ("an
    initial Map task emits all keys with the value 0" in WO), then
    :meth:`accumulate` after each chunk's map, and transfers the state
    once after the last map.
    """

    @abstractmethod
    def initial_state(self, fresh_scale: float) -> KeyValueSet:
        """The resident pair set before the first map.

        ``fresh_scale`` is the sampling scale of incoming map output.
        Dense-table accumulators represent their state *exactly* (one
        slot per key of a known universe), so they return ``scale=1``:
        the table's byte counts are full-scale no matter how the input
        stream was sampled.  Value magnitudes then reflect the sampled
        stream; apps rescale on output where it matters.
        """

    @abstractmethod
    def accumulate(self, state: KeyValueSet, fresh: KeyValueSet) -> KeyValueSet:
        """Merge one chunk's emissions into the resident state."""

    @abstractmethod
    def accumulate_cost(self, n_fresh: int, n_state: int, pair_bytes: int) -> List[KernelLaunch]:
        """Launches for one accumulate step (logical counts)."""

    def state_bytes(self, pair_bytes: int) -> int:
        """Device memory the resident state occupies (for the allocator)."""
        raise NotImplementedError


class SumAccumulator(Accumulator):
    """Dense accumulation over a known key universe ``[0, n_keys)``.

    This is the paper's WO/KMC/LR pattern: the key space is small and
    indexable, so fresh pairs are scatter-added into a dense table
    ("we simply index into the emit space and use a fire-and-forget
    atomic instruction to increment the associated value").
    """

    def __init__(self, n_keys: int, value_width: int = 1, value_dtype=np.float64,
                 use_atomics: bool = True) -> None:
        if n_keys <= 0:
            raise ValueError("n_keys must be positive")
        self.n_keys = int(n_keys)
        self.value_width = int(value_width)
        self.value_dtype = value_dtype
        self.use_atomics = use_atomics

    def initial_state(self, fresh_scale: float) -> KeyValueSet:
        del fresh_scale  # dense tables are exact regardless of sampling
        shape = (self.n_keys,) if self.value_width == 1 else (self.n_keys, self.value_width)
        return KeyValueSet(
            keys=np.arange(self.n_keys, dtype=np.uint32),
            values=np.zeros(shape, dtype=self.value_dtype),
            scale=1.0,
        )

    def accumulate(self, state: KeyValueSet, fresh: KeyValueSet) -> KeyValueSet:
        if len(fresh) == 0:
            return state
        if fresh.keys.max(initial=0) >= self.n_keys:
            raise ValueError("fresh key outside the accumulator's key universe")
        np.add.at(state.values, fresh.keys, fresh.values)
        return state

    def accumulate_cost(self, n_fresh: int, n_state: int, pair_bytes: int) -> List[KernelLaunch]:
        value_bytes = max(pair_bytes - 4, 4)
        if self.use_atomics:
            # Fire-and-forget atomic adds; conflicts grow as keys shrink.
            conflict = min(32.0, max(1.0, 32.0 * 4 / max(self.n_keys, 1)))
            return [
                launch_1d(
                    "accumulate_atomic",
                    n_fresh,
                    flops_per_item=1.0,
                    read_bytes_per_item=4.0,
                    atomics_per_item=float(self.value_width),
                    atomic_conflict=conflict,
                )
            ]
        # GT200 float path: block-level reduction + per-block pools, then
        # a short second kernel folds the pools (paper Section 5.3.4).
        return [
            launch_1d(
                "accumulate_block_reduce",
                n_fresh,
                flops_per_item=2.0 * self.value_width,
                read_bytes_per_item=float(value_bytes),
                write_bytes_per_item=0.05 * value_bytes,
                syncs=1,
            ),
            launch_1d(
                "accumulate_pool_fold",
                max(self.n_keys * 64, 1),
                flops_per_item=1.0,
                read_bytes_per_item=float(value_bytes),
                write_bytes_per_item=value_bytes / 64.0,
            ),
        ]

    def state_bytes(self, pair_bytes: int) -> int:
        return self.n_keys * pair_bytes

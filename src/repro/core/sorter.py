"""Sorters for the GPMR Sort stage.

The default is the CUDPP-style radix sort ("when possible (with keys
that are integer-based), we used radix sort from CUDPP (GPMR's default
Sorter)"); a comparison-based fallback exists for keys wider than the
radix budget, and the interface is user-replaceable like every GPMR
stage.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

import numpy as np

from .kvset import KeyValueSet
from ..hw.kernel import KernelLaunch
from ..primitives import launch_1d, radix_sort_cost, radix_sort_pairs

__all__ = ["Sorter", "RadixSorter", "ComparisonSorter"]


class Sorter(ABC):
    """Base class: stable sort of a KVSet by key."""

    @abstractmethod
    def sort(self, kv: KeyValueSet) -> KeyValueSet:
        """Functional: return the KVSet sorted ascending by key."""

    @abstractmethod
    def sort_cost(self, n_pairs: int, key_bits: int, pair_bytes: int) -> List[KernelLaunch]:
        """Temporal: launches for sorting ``n_pairs`` (logical)."""


class RadixSorter(Sorter):
    """Stable radix sort via the primitive library (GPMR default).

    ``key_bits`` may be pinned at construction (apps that know their
    key range, like WO's 43k MPH slots, pay fewer digit passes — the
    kind of tuning the paper encourages).  The pin is a checked
    promise: sorting a set that holds a key needing more bits (or a
    negative key) raises ``ValueError`` rather than ordering by the low
    bits only.  It prices the modeled sort (:meth:`sort_cost`); the
    host execution picks its own pass structure, see
    :mod:`repro.primitives.sort`.
    """

    def __init__(self, key_bits: Optional[int] = None) -> None:
        if key_bits is not None and not (1 <= key_bits <= 64):
            raise ValueError("key_bits must be in [1, 64]")
        self.key_bits = key_bits

    def sort(self, kv: KeyValueSet) -> KeyValueSet:
        keys, values = radix_sort_pairs(kv.keys, kv.values, key_bits=self.key_bits)
        return KeyValueSet(keys=keys, values=values, scale=kv.scale)

    def sort_cost(self, n_pairs: int, key_bits: int, pair_bytes: int) -> List[KernelLaunch]:
        bits = self.key_bits if self.key_bits is not None else key_bits
        return radix_sort_cost(
            n_pairs,
            key_bits=bits,
            key_bytes=4,
            value_bytes=max(pair_bytes - 4, 0),
        )


class ComparisonSorter(Sorter):
    """Merge-sort-style comparison sorter ("when not, we implemented
    our own") — O(n log n) cost, for non-radix-friendly keys."""

    def sort(self, kv: KeyValueSet) -> KeyValueSet:
        order = np.argsort(kv.keys, kind="stable")
        return kv.select(order)

    def sort_cost(self, n_pairs: int, key_bits: int, pair_bytes: int) -> List[KernelLaunch]:
        n = max(n_pairs, 2)
        log_n = float(np.ceil(np.log2(n)))
        return [
            launch_1d(
                "merge_sort_pass",
                n,
                flops_per_item=2.0,
                read_bytes_per_item=float(pair_bytes),
                write_bytes_per_item=float(pair_bytes),
                coalescing=0.6,
                syncs=1,
            )
        ] * int(log_n)

"""Duplicate-key elimination over sorted keys (GPMR Sort-stage epilogue).

After the radix sort, GPMR "discards duplicate keys.  Because of the
sort, each key's value is stored contiguously.  Hence, we only need the
number of values and the index of the first value to describe each
sequence" (paper Section 4.2).  That is exactly what
:func:`unique_segments` computes: unique keys, the start offset of each
key's value run, and the run length.

On the GPU this is a head-flags pass + scan + compact; the cost model
charges those passes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .common import as_1d_array, launch_1d
from .compact import compact_cost
from .scan import scan_cost

__all__ = ["KeyRuns", "unique_segments", "unique_segments_cost"]


class KeyRuns(NamedTuple):
    """Run-length description of a sorted key array."""

    unique_keys: np.ndarray   #: one entry per distinct key, ascending
    offsets: np.ndarray       #: start index of each key's value run
    counts: np.ndarray        #: run length per key

    @property
    def n_keys(self) -> int:
        return len(self.unique_keys)


def unique_segments(sorted_keys: np.ndarray) -> KeyRuns:
    """Run-length encode a *sorted* key array.

    Raises if the keys are not in non-decreasing order (the GPU code
    would silently produce garbage; we check because we can).

    One head-flag pass with a sentinel at each end: ``heads[i]`` marks
    where a run starts and ``heads[n]`` where the last one ends, so the
    run bounds are one ``flatnonzero`` — the offsets are all but the
    last bound and the counts the differences between neighbours.
    """
    k = as_1d_array(sorted_keys)
    # Compare rather than diff: unsigned dtypes wrap under subtraction.
    if np.any(k[1:] < k[:-1]):
        raise ValueError("unique_segments requires sorted keys")
    n = len(k)
    heads = np.empty(n + 1, dtype=bool)
    heads[0] = heads[n] = True
    np.not_equal(k[1:], k[:-1], out=heads[1:n])
    bounds = np.flatnonzero(heads).astype(np.int64, copy=False)
    offsets = bounds[:-1]
    return KeyRuns(k[offsets], offsets, bounds[1:] - offsets)


def unique_segments_cost(n: int, n_unique: int, key_bytes: int = 4) -> list:
    """Cost: head-flag pass, scan, and compaction of three output arrays."""
    flags = launch_1d(
        "head_flags",
        n,
        flops_per_item=1.0,
        read_bytes_per_item=2.0 * key_bytes,  # key[i] and key[i-1]
        write_bytes_per_item=1.0,
    )
    keep = n_unique / max(n, 1)
    return [
        flags,
        scan_cost(n, itemsize=4),
        compact_cost(n, itemsize=key_bytes + 8, keep_fraction=keep),
    ]

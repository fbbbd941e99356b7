"""Stable key-value sort — the CUDPP/Satish-et-al. radix-sort role.

Two things live here and are deliberately decoupled:

* **What the sort costs** (:func:`radix_sort_cost`): an LSD radix sort
  of ``ceil(key_bits / DIGIT_BITS)`` counting-sort passes (histogram +
  exclusive scan + stable scatter), as in Satish, Harris & Garland,
  IPDPS 2009, which the paper uses via CUDPP.  The simulator prices the
  GPU's sort with it, so its shape never follows the host's.
* **What runs on the host** (:func:`radix_sort_pairs`): whichever of
  three NumPy formulations yields the same stable permutation fastest,
  chosen from ``key_bits`` and ``n`` alone:

  1. ``key_bits <= 16`` — one counting pass: ``argsort(kind="stable")``
     of the keys narrowed to ``uint8``/``uint16``, which NumPy runs as
     a radix/counting sort (KMC's 5-bit and WO's 13-bit keys).
  2. ``key_bits + ceil(log2 n) <= 64`` — sort **one** packed ``uint64``
     word ``key << index_bits | index`` with ``ndarray.sort()`` (a
     vectorised in-place quicksort), then read the sorted keys off the
     high bits and the permutation off the low bits.  The words are
     distinct and equal keys order by index, so it is the stable
     permutation by construction (SIO's 22-bit keys).
  3. otherwise — the counting pass of (1) looped over 16-bit digits,
     least significant first (64-bit keys).

``radix_sort_pairs`` carries a value payload through the permutation,
which is how GPMR sorts its key-value sets.  Values may be any ndarray
whose first dimension matches the keys (e.g. ``(n, dims)`` float
blocks).  A uniform column
(:func:`~repro.primitives.common.uniform_element`) leaves nothing to
permute — every permutation of it is itself — so the keys are
validated the same way and then sorted directly, with no order array
and no gather.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .common import as_1d_array, launch_1d, uniform_element
from ..hw.kernel import KernelLaunch

__all__ = [
    "longest_first",
    "radix_sort_pairs",
    "radix_sort_cost",
    "bitonic_sort_cost",
    "significant_bits",
]

#: Digit width of one *priced* GPU counting-sort pass (CUDPP's 8-bit
#: digits).  Cost model only — :func:`radix_sort_cost` is its one
#: reader; the host path below never looks at it.
DIGIT_BITS = 8

#: Widest digit one host counting pass takes: NumPy's stable argsort is
#: a radix sort for 8- and 16-bit integers (and a timsort beyond).
_HOST_DIGIT_BITS = 16


def significant_bits(keys: np.ndarray) -> int:
    """Number of key bits the sort must process (max over the array)."""
    k = as_1d_array(keys)
    if len(k) == 0:
        return 0
    if k.dtype.kind not in "iu":
        raise TypeError(f"radix sort requires integer keys, got {k.dtype}")
    if k.dtype.kind == "i" and int(k.min()) < 0:
        raise ValueError("radix sort requires non-negative keys")
    return max(int(k.max()).bit_length(), 1)


def _counting_order(digits: np.ndarray, bits: int) -> np.ndarray:
    """Stable order of ``digits``' low ``bits`` (<= 16): one counting
    pass (the narrowing cast keeps exactly the low 8 or 16 bits)."""
    narrow = np.uint8 if bits <= 8 else np.uint16
    return np.argsort(digits.astype(narrow), kind="stable")


def longest_first(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The stable longest-first order of ``lengths`` (a counting sort on
    the narrowest key dtype) and, per position ``p < max(lengths)``, the
    count of rows longer than ``p``, which in that order are a prefix."""
    max_len = int(lengths.max())
    key = (max_len - lengths).astype(np.min_scalar_type(max_len))
    order = np.argsort(key, kind="stable")
    alive = len(lengths) - np.cumsum(np.bincount(lengths, minlength=max_len))
    return order, alive[:max_len]


def radix_sort_pairs(
    keys: np.ndarray,
    values: Optional[np.ndarray],
    key_bits: Optional[int] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Stable-sort ``keys`` carrying ``values``; returns sorted copies.

    ``key_bits`` pins the number of key bits to process (default: the
    widest key's).  It is a promise about the keys, checked in the same
    min/max pass that finds the default: a key that needs more bits, or
    a negative one, raises ``ValueError`` instead of mis-sorting.

    A uniform value column comes back as the same read-only view
    (sorting cannot change it), not as a copy.
    """
    k = as_1d_array(keys)
    if k.dtype.kind not in "iu":
        raise TypeError(f"radix sort requires integer keys, got {k.dtype}")
    if values is not None and len(values) != len(k):
        raise ValueError("values must have the same length as keys")
    bits = significant_bits(k)
    if key_bits is not None:
        if bits > int(key_bits):
            raise ValueError(
                f"keys need {bits} bits but key_bits={int(key_bits)} was pinned"
            )
        # Bits beyond the dtype's width are zero for every key.
        bits = min(int(key_bits), 8 * k.dtype.itemsize)

    if uniform_element(values) is not None:
        return np.sort(k), values

    n = len(k)
    index_bits = max(n - 1, 0).bit_length()
    if bits <= _HOST_DIGIT_BITS:
        order = _counting_order(k, bits)
        sorted_keys = k[order]
    elif bits + index_bits <= 64:
        word = k.astype(np.uint64)
        word <<= np.uint64(index_bits)
        word |= np.arange(n, dtype=np.uint64)
        word.sort()
        # Keys stream off the high bits (cheaper than a second random
        # gather); the word's own buffer then becomes the order.
        sorted_keys = (word >> np.uint64(index_bits)).astype(k.dtype)
        word &= np.uint64((1 << index_bits) - 1)
        order = word.view(np.int64)
    else:
        order = _counting_order(k, _HOST_DIGIT_BITS)
        for shift in range(_HOST_DIGIT_BITS, bits, _HOST_DIGIT_BITS):
            digits = k[order] >> k.dtype.type(shift)
            order = order[_counting_order(digits, _HOST_DIGIT_BITS)]
        sorted_keys = k[order]
    sorted_values = values[order] if values is not None else None
    return sorted_keys, sorted_values


def radix_sort_cost(
    n: int,
    key_bits: int = 32,
    value_bytes: int = 4,
    key_bytes: int = 4,
) -> List[KernelLaunch]:
    """Cost of sorting ``n`` (key, value) pairs: one launch per digit pass.

    Each pass histograms, scans the 256-bin table, and scatters keys and
    values.  Reads are coalesced; the scatter write is not (~0.4
    effective, matching measured GT200 radix throughput of roughly 1
    G-pairs/s for 32-bit keys).
    """
    passes = max(1, (max(key_bits, 1) + DIGIT_BITS - 1) // DIGIT_BITS)
    pair = key_bytes + value_bytes
    per_pass = launch_1d(
        "radix_pass",
        n,
        flops_per_item=4.0,
        read_bytes_per_item=pair + key_bytes,   # payload read + digit re-read
        write_bytes_per_item=float(pair),
        coalescing=0.4,                          # scatter-dominated
        syncs=2,                                 # histogram + scan sub-steps
    )
    return [per_pass] * passes


def bitonic_sort_cost(
    n: int,
    value_bytes: int = 4,
    key_bytes: int = 4,
) -> List[KernelLaunch]:
    """Cost of a bitonic sort of ``n`` pairs — Mars's sorter.

    Bitonic sort runs ``log2(n) * (log2(n) + 1) / 2`` compare-exchange
    stages, each streaming every pair through global memory once.  The
    O(n log^2 n) traffic (vs. radix's O(n)) is a large part of why GPMR
    beats Mars on sort-heavy jobs (Table 3); Mars's published design
    uses bitonic sort [He et al. 2008].
    """
    if n <= 1:
        return [launch_1d("bitonic_stage", max(n, 1), read_bytes_per_item=1.0)]
    log_n = int(np.ceil(np.log2(n)))
    stages = log_n * (log_n + 1) // 2
    pair = key_bytes + value_bytes
    per_stage = launch_1d(
        "bitonic_stage",
        n,
        flops_per_item=2.0,
        read_bytes_per_item=float(pair),
        write_bytes_per_item=float(pair),
        coalescing=0.5,  # strided partner access
        syncs=1,
    )
    return [per_stage] * stages

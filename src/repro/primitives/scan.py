"""Parallel prefix-sum (scan) primitives — the CUDPP scan role.

Functional results are exact (NumPy cumulative sums); the cost model
follows the work-efficient Blelloch scan of Harris et al. (GPU Gems 3,
ch. 39), which GPMR uses via CUDPP: an up-sweep and a down-sweep, each
streaming the array once, so ~4 n element transfers end to end plus a
small recursive block-sums term (folded into a 1.1x factor).
"""

from __future__ import annotations


import numpy as np

from .common import as_1d_array, launch_1d
from ..hw.kernel import KernelLaunch

__all__ = [
    "exclusive_scan",
    "inclusive_scan",
    "segmented_scan",
    "scan_cost",
]


def exclusive_scan(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: ``out[i] = sum(values[:i])``."""
    v = as_1d_array(values)
    out = np.empty_like(v)
    if len(v):
        out[0] = 0
        np.cumsum(v[:-1], out=out[1:])
    return out


def inclusive_scan(values: np.ndarray) -> np.ndarray:
    """Inclusive prefix sum: ``out[i] = sum(values[:i + 1])``."""
    return np.cumsum(as_1d_array(values))


def segmented_scan(values: np.ndarray, segment_heads: np.ndarray) -> np.ndarray:
    """Inclusive scan that restarts at every ``segment_heads`` flag.

    ``segment_heads`` is a boolean array; ``True`` marks the first
    element of a segment.  Implemented with the standard
    subtract-segment-offset trick so it stays fully vectorised.
    """
    v = as_1d_array(values)
    heads = as_1d_array(segment_heads, dtype=bool)
    if v.shape != heads.shape:
        raise ValueError("values and segment_heads must have equal length")
    if len(v) == 0:
        return v.copy()
    if not heads[0]:
        raise ValueError("segment_heads[0] must be True (first segment start)")
    total = np.cumsum(v)
    # Total just before each segment start, broadcast over the segment.
    seg_index = np.cumsum(heads) - 1
    head_positions = np.flatnonzero(heads)
    base = np.concatenate(([0], total[head_positions[1:] - 1]))
    return total - base[seg_index]


def scan_cost(n: int, itemsize: int = 4) -> KernelLaunch:
    """Cost of a work-efficient scan over ``n`` items of ``itemsize`` bytes."""
    # Up-sweep reads+writes n, down-sweep reads+writes n => 4 n moves;
    # 1.1x covers the recursive scan of per-block sums.
    return launch_1d(
        "cudpp_scan",
        n,
        flops_per_item=2.0,
        read_bytes_per_item=2.2 * itemsize,
        write_bytes_per_item=2.2 * itemsize,
        syncs=2,
    )

"""Parallel prefix-sum (scan) cost — the CUDPP scan role.

The cost model follows the work-efficient Blelloch scan of Harris et
al. (GPU Gems 3, ch. 39), which GPMR uses via CUDPP: an up-sweep and a
down-sweep, each streaming the array once, so ~4 n element transfers
end to end plus a small recursive block-sums term (folded into a 1.1x
factor).  Mars's prefix-sum pass and :func:`unique_segments_cost` price
with it; no host code path scans on its own.
"""

from __future__ import annotations

from .common import launch_1d
from ..hw.kernel import KernelLaunch

__all__ = ["scan_cost"]


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

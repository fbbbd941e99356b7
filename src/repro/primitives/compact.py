"""Stream compaction cost: keep the flagged elements, preserving order.

On the GPU this is scan + scatter (the canonical CUDPP compact); the
cost model reflects both passes.  :func:`unique_segments_cost` is its
one user; the host never compacts on its own.
"""

from __future__ import annotations

from .common import launch_1d
from ..hw.kernel import KernelLaunch

__all__ = ["compact_cost"]


def compact_cost(n: int, itemsize: int = 4, keep_fraction: float = 1.0) -> KernelLaunch:
    """Cost of compacting ``n`` items, writing ``keep_fraction`` of them."""
    if not (0.0 <= keep_fraction <= 1.0):
        raise ValueError("keep_fraction must be in [0, 1]")
    return launch_1d(
        "compact",
        n,
        flops_per_item=1.0,
        # scan pass (flag read/write) + scatter pass (payload).
        read_bytes_per_item=1.0 + itemsize,
        write_bytes_per_item=1.0 + itemsize * keep_fraction,
        coalescing=0.7,  # scatter writes are mostly-but-not-fully coalesced
        syncs=1,
    )

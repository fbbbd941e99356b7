"""Shared helpers for the data-parallel primitive library."""

from __future__ import annotations

import numpy as np

from ..hw.kernel import KernelLaunch

__all__ = [
    "DEFAULT_BLOCK",
    "grid_for",
    "launch_1d",
    "as_1d_array",
    "uniform_element",
]

#: Default CUDA block size used by the primitive cost models.
DEFAULT_BLOCK = 256


def grid_for(n_items: int, block: int = DEFAULT_BLOCK, items_per_thread: int = 1) -> int:
    """Number of blocks needed for ``n_items`` with the given geometry."""
    if n_items <= 0:
        return 1
    threads = (n_items + items_per_thread - 1) // items_per_thread
    return max(1, (threads + block - 1) // block)


def launch_1d(
    name: str,
    n_items: int,
    *,
    flops_per_item: float = 0.0,
    read_bytes_per_item: float = 0.0,
    write_bytes_per_item: float = 0.0,
    coalescing: float = 1.0,
    atomics_per_item: float = 0.0,
    atomic_conflict: float = 1.0,
    divergence: float = 1.0,
    items_per_thread: int = 1,
    block: int = DEFAULT_BLOCK,
    syncs: int = 0,
) -> KernelLaunch:
    """Build a 1-D elementwise :class:`KernelLaunch` from per-item rates."""
    n = max(int(n_items), 0)
    return KernelLaunch(
        name=name,
        grid_blocks=grid_for(n, block=block, items_per_thread=items_per_thread),
        block_threads=block,
        flops=flops_per_item * n,
        gmem_read=read_bytes_per_item * n,
        gmem_write=write_bytes_per_item * n,
        coalescing=coalescing,
        atomics=atomics_per_item * n,
        atomic_conflict=atomic_conflict,
        divergence=divergence,
        syncs=syncs,
    )


def as_1d_array(a, dtype=None) -> np.ndarray:
    """Validate/convert input to a contiguous 1-D ndarray."""
    arr = np.ascontiguousarray(a, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {arr.shape}")
    return arr


def uniform_element(values):
    """The repeated element of a **uniform column**, else ``None``.

    A uniform column is a non-empty 1-D host ndarray with stride 0 —
    what ``np.broadcast_to(element, (n,))`` returns: ``n`` logical
    entries (``len``, ``nbytes``, indexing all say so) backed by one
    read-only element.  Every stride-0 array holds one element
    repeated, so the test cannot misfire; code that does not ask just
    sees an ordinary ndarray and materialises where it must.
    """
    if (
        isinstance(values, np.ndarray)
        and values.ndim == 1
        and values.strides[0] == 0
        and len(values)
    ):
        return values[0]
    return None

"""Device-memory accounting: a first-fit allocator with coalescing free.

The GPUs in this reproduction hold their *data* in host NumPy arrays
(the functional half of the model), but the *budget* of device memory
is enforced here so that out-of-core behaviour is real: a GPMR chunk
that would not fit on a 1 GB GT200 raises :class:`OutOfDeviceMemory`
exactly where a ``cudaMalloc`` would have failed.

The allocator is a classic address-ordered first-fit free list with
coalescing on free, so fragmentation behaviour is plausible rather than
idealised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["Allocation", "DeviceAllocator", "OutOfDeviceMemory"]


class OutOfDeviceMemory(MemoryError):
    """Raised when an allocation cannot be satisfied."""

    def __init__(self, requested: int, free: int, capacity: int) -> None:
        super().__init__(
            f"device OOM: requested {requested} B, largest-free-dependent, "
            f"free {free} B of {capacity} B"
        )
        self.requested = requested
        self.free = free
        self.capacity = capacity


@dataclass(frozen=True)
class Allocation:
    """A live device-memory reservation."""

    offset: int
    size: int
    tag: str = ""

    @property
    def end(self) -> int:
        return self.offset + self.size


class DeviceAllocator:
    """First-fit allocator over a linear device address space."""

    #: all allocations are rounded up to this many bytes (GPU malloc
    #: granularity; also keeps offsets aligned for coalescing).
    ALIGNMENT = 256

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = int(capacity)
        # (offset, size), address-ordered, non-adjacent.
        self._free: List[Tuple[int, int]] = [(0, self._capacity)]
        self._live: Dict[int, Allocation] = {}
        self._peak = 0

    # -- inspection ------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def used(self) -> int:
        return sum(a.size for a in self._live.values())

    @property
    def free_bytes(self) -> int:
        return self._capacity - self.used

    @property
    def peak_used(self) -> int:
        """High-water mark of bytes in use."""
        return self._peak

    def largest_free_block(self) -> int:
        return max((size for _, size in self._free), default=0)

    def would_fit(self, nbytes: int) -> bool:
        """Whether ``alloc(nbytes)`` would currently succeed."""
        needed = self._aligned(nbytes)
        return any(size >= needed for _, size in self._free)

    # -- operations --------------------------------------------------------
    @classmethod
    def _aligned(cls, nbytes: int) -> int:
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        n = max(int(nbytes), 1)
        return (n + cls.ALIGNMENT - 1) // cls.ALIGNMENT * cls.ALIGNMENT

    def alloc(self, nbytes: int, tag: str = "") -> Allocation:
        """Reserve ``nbytes`` (rounded to alignment); first-fit placement."""
        needed = self._aligned(nbytes)
        for i, (offset, size) in enumerate(self._free):
            if size >= needed:
                if size == needed:
                    self._free.pop(i)
                else:
                    self._free[i] = (offset + needed, size - needed)
                allocation = Allocation(offset=offset, size=needed, tag=tag)
                self._live[offset] = allocation
                self._peak = max(self._peak, self.used)
                return allocation
        raise OutOfDeviceMemory(needed, self.free_bytes, self._capacity)

    def free(self, allocation: Allocation) -> None:
        """Release a reservation, coalescing with free neighbours."""
        live = self._live.pop(allocation.offset, None)
        if live is None or live.size != allocation.size:
            raise ValueError(f"double free or foreign allocation: {allocation}")

        lo, size = allocation.offset, allocation.size
        hi = lo + size
        merged: List[Tuple[int, int]] = []
        for off, sz in self._free:
            if off + sz == lo:           # free block ends where we start
                lo, size = off, sz + size
            elif off == hi:              # free block starts where we end
                size += sz
                hi = lo + size
            else:
                merged.append((off, sz))
        merged.append((lo, size))
        merged.sort()
        self._free = merged

    def reset(self) -> None:
        """Free everything (device reset)."""
        self._free = [(0, self._capacity)]
        self._live.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<DeviceAllocator used={self.used}/{self._capacity} "
            f"live={len(self._live)} frags={len(self._free)}>"
        )

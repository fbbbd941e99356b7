"""Analytic kernel cost model (the temporal half of a CUDA kernel).

A :class:`KernelLaunch` describes *what a kernel does* in roofline
terms — total FLOPs, global-memory traffic, coalescing quality, atomics
— plus its launch geometry.  :func:`kernel_duration` converts that into
simulated seconds on a :class:`~repro.hw.specs.GPUSpec` using a
max-of-bottlenecks roofline:

``t = launch_overhead + max(t_compute, t_memory) + t_atomics + t_sync``

with an occupancy de-rating when the grid is too small to fill the
machine (Kirk & Hwu's "many threads and blocks" rule, which the paper
leans on) and a divergence de-rating for warp-incoherent kernels.

The numbers that matter for the reproduction are *ratios* (map kernel
vs PCI-e vs network), and those are governed by the published bandwidth
and throughput figures in :mod:`repro.hw.specs`; the efficiency
constants here are the usual achievable fractions of peak.
"""

from __future__ import annotations

from dataclasses import dataclass

from .specs import GPUSpec
from ..util.validation import check_in_range, check_non_negative

__all__ = ["KernelLaunch", "kernel_duration", "COMPUTE_EFFICIENCY", "MEMORY_EFFICIENCY"]

#: Achievable fraction of peak FLOP/s for tuned kernels.
COMPUTE_EFFICIENCY = 0.75
#: Achievable fraction of peak DRAM bandwidth for coalesced streams.
MEMORY_EFFICIENCY = 0.80


@dataclass(frozen=True)
class KernelLaunch:
    """Roofline description of one kernel invocation.

    Parameters
    ----------
    name:
        Label for tracing/stats.
    grid_blocks / block_threads:
        Launch geometry; used for the occupancy de-rating and to bound
        ``block_threads`` by the device limit.
    flops:
        Total floating-point (or integer ALU) operations.
    gmem_read / gmem_write:
        Global-memory traffic in bytes.
    coalescing:
        Fraction of peak memory bandwidth this kernel's access pattern
        achieves (1.0 = perfectly coalesced, ~1/16 = fully scattered
        32-bit accesses on GT200).
    atomics:
        Number of global-memory atomic operations issued.
    atomic_conflict:
        Average serialisation factor of those atomics (1 = conflict-free
        fire-and-forget, N = N-way same-address contention).
    divergence:
        Warp-divergence de-rating of compute throughput (1.0 = coherent).
    syncs:
        Number of device-wide synchronisation points beyond the launch
        itself (each costs one launch overhead — GPMR kernels that need
        global sync split into multiple launches).
    """

    name: str
    grid_blocks: int
    block_threads: int
    flops: float = 0.0
    gmem_read: float = 0.0
    gmem_write: float = 0.0
    coalescing: float = 1.0
    atomics: float = 0.0
    atomic_conflict: float = 1.0
    divergence: float = 1.0
    syncs: int = 0

    def __post_init__(self) -> None:
        check_non_negative(self.grid_blocks, "grid_blocks")
        check_non_negative(self.block_threads, "block_threads")
        check_non_negative(self.flops, "flops")
        check_non_negative(self.gmem_read, "gmem_read")
        check_non_negative(self.gmem_write, "gmem_write")
        check_in_range(self.coalescing, 1e-3, 1.0, "coalescing")
        check_non_negative(self.atomics, "atomics")
        if self.atomic_conflict < 1.0:
            raise ValueError("atomic_conflict must be >= 1")
        check_in_range(self.divergence, 1e-3, 1.0, "divergence")
        check_non_negative(self.syncs, "syncs")

    @property
    def total_threads(self) -> int:
        return self.grid_blocks * self.block_threads

    @property
    def bytes_moved(self) -> float:
        return self.gmem_read + self.gmem_write


def occupancy(spec: GPUSpec, launch: KernelLaunch) -> float:
    """Fraction of the device the launch can keep busy (0..1].

    A grid with fewer resident threads than the device supports cannot
    hide latency; throughput falls roughly linearly below full
    occupancy.  We floor at one warp per SM's worth of throughput.
    """
    if launch.total_threads <= 0:
        return 1.0
    full = spec.max_resident_threads
    frac = min(1.0, launch.total_threads / full)
    floor = spec.warp_size / 1024.0  # one warp per SM
    return max(frac, floor)


def kernel_duration(spec: GPUSpec, launch: KernelLaunch) -> float:
    """Simulated execution time of ``launch`` on ``spec`` in seconds."""
    if launch.block_threads > spec.max_threads_per_block:
        raise ValueError(
            f"{launch.name}: block of {launch.block_threads} threads exceeds "
            f"device limit {spec.max_threads_per_block}"
        )

    occ = occupancy(spec, launch)

    compute_rate = spec.peak_flops * COMPUTE_EFFICIENCY * launch.divergence * occ
    t_compute = launch.flops / compute_rate if launch.flops else 0.0

    mem_rate = spec.mem_bandwidth * MEMORY_EFFICIENCY * launch.coalescing * occ
    t_memory = launch.bytes_moved / mem_rate if launch.bytes_moved else 0.0

    t_atomic = launch.atomics * spec.atomic_cost * launch.atomic_conflict
    overheads = spec.kernel_launch_overhead * (1 + launch.syncs)

    return overheads + max(t_compute, t_memory) + t_atomic

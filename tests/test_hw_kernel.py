"""Unit tests for the roofline kernel cost model."""

import pytest

from repro.hw import GT200, KernelLaunch, kernel_duration
from repro.hw.kernel import COMPUTE_EFFICIENCY, MEMORY_EFFICIENCY, occupancy


def full_grid(**kwargs):
    """A launch geometry that fully occupies GT200."""
    defaults = dict(name="k", grid_blocks=240, block_threads=256)
    defaults.update(kwargs)
    return KernelLaunch(**defaults)


def test_empty_kernel_costs_launch_overhead():
    launch = full_grid()
    assert kernel_duration(GT200, launch) == pytest.approx(
        GT200.kernel_launch_overhead
    )


def test_compute_bound_kernel_scales_with_flops():
    base = full_grid(flops=1e9)
    double = full_grid(flops=2e9)
    t1 = kernel_duration(GT200, base) - GT200.kernel_launch_overhead
    t2 = kernel_duration(GT200, double) - GT200.kernel_launch_overhead
    assert t2 == pytest.approx(2 * t1)


def test_memory_bound_kernel_scales_with_bytes():
    base = full_grid(gmem_read=1e8)
    double = full_grid(gmem_read=2e8)
    t1 = kernel_duration(GT200, base) - GT200.kernel_launch_overhead
    t2 = kernel_duration(GT200, double) - GT200.kernel_launch_overhead
    assert t2 == pytest.approx(2 * t1)


def test_roofline_takes_max_of_compute_and_memory():
    compute_only = full_grid(flops=1e10)
    memory_only = full_grid(gmem_read=1e9)
    both = full_grid(flops=1e10, gmem_read=1e9)
    t_both = kernel_duration(GT200, both)
    assert t_both == pytest.approx(
        max(kernel_duration(GT200, compute_only), kernel_duration(GT200, memory_only))
    )


def test_compute_rate_matches_efficiency():
    launch = full_grid(flops=GT200.peak_flops)  # 1 second of peak work
    t = kernel_duration(GT200, launch) - GT200.kernel_launch_overhead
    assert t == pytest.approx(1.0 / COMPUTE_EFFICIENCY)


def test_memory_rate_matches_efficiency():
    launch = full_grid(gmem_read=GT200.mem_bandwidth)
    t = kernel_duration(GT200, launch) - GT200.kernel_launch_overhead
    assert t == pytest.approx(1.0 / MEMORY_EFFICIENCY)


def test_poor_coalescing_slows_memory_kernel():
    good = full_grid(gmem_read=1e8, coalescing=1.0)
    bad = full_grid(gmem_read=1e8, coalescing=0.125)
    assert kernel_duration(GT200, bad) > 7 * kernel_duration(GT200, good)


def test_divergence_slows_compute_kernel():
    coherent = full_grid(flops=1e10, divergence=1.0)
    divergent = full_grid(flops=1e10, divergence=0.5)
    t_c = kernel_duration(GT200, coherent) - GT200.kernel_launch_overhead
    t_d = kernel_duration(GT200, divergent) - GT200.kernel_launch_overhead
    assert t_d == pytest.approx(2 * t_c)


def test_atomics_add_serialised_cost():
    none = full_grid(flops=1e6)
    with_atomics = full_grid(flops=1e6, atomics=1e6, atomic_conflict=4.0)
    extra = kernel_duration(GT200, with_atomics) - kernel_duration(GT200, none)
    assert extra == pytest.approx(1e6 * GT200.atomic_cost * 4.0)


def test_small_grid_occupancy_penalty():
    # Same total work, tiny grid: cannot hide latency => slower.
    full = full_grid(flops=1e9)
    tiny = KernelLaunch(name="k", grid_blocks=1, block_threads=32, flops=1e9)
    # The floor is one warp per SM's throughput => at most ~32x slower.
    assert kernel_duration(GT200, tiny) > 20 * kernel_duration(GT200, full)


def test_occupancy_floor_one_warp():
    launch = KernelLaunch(name="k", grid_blocks=1, block_threads=1, flops=1.0)
    assert occupancy(GT200, launch) == pytest.approx(32 / 1024)


def test_occupancy_caps_at_one():
    launch = full_grid(grid_blocks=10_000)
    assert occupancy(GT200, launch) == 1.0


def test_syncs_cost_extra_launch_overheads():
    plain = full_grid(flops=1e9)
    synced = full_grid(flops=1e9, syncs=3)
    extra = kernel_duration(GT200, synced) - kernel_duration(GT200, plain)
    assert extra == pytest.approx(3 * GT200.kernel_launch_overhead)


def test_block_size_limit_enforced():
    launch = KernelLaunch(name="k", grid_blocks=1, block_threads=1024)
    with pytest.raises(ValueError, match="exceeds"):
        kernel_duration(GT200, launch)


@pytest.mark.parametrize(
    "field,value",
    [
        ("flops", -1.0),
        ("coalescing", 0.0),
        ("coalescing", 1.5),
        ("atomic_conflict", 0.5),
        ("divergence", 2.0),
    ],
)
def test_launch_validation(field, value):
    kwargs = dict(name="k", grid_blocks=1, block_threads=32)
    kwargs[field] = value
    with pytest.raises(ValueError):
        KernelLaunch(**kwargs)

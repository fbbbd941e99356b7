"""Tests for the GPU/PCIe/CPU device models on the simulation engine."""

import pytest

from repro.hw.kernel import KernelLaunch
from repro.hw.memory import OutOfDeviceMemory
from repro.hw.node import Node, build_nodes
from repro.hw.pcie import D2H, H2D, PCIeLink
from repro.hw.specs import ACCELERATOR, ACCELERATOR_NODE, GT200, PCIE_GEN1_X16
from repro.sim import Environment


def make_node(env):
    return Node(env, ACCELERATOR_NODE, index=0)


# ---------------------------------------------------------------------------
# PCIe
# ---------------------------------------------------------------------------

def test_pcie_duration_formula():
    env = Environment()
    link = PCIeLink(env, PCIE_GEN1_X16)
    expected = PCIE_GEN1_X16.latency + 1e6 / PCIE_GEN1_X16.bandwidth_h2d
    assert link.duration(1_000_000, H2D) == pytest.approx(expected)


def test_pcie_transfer_advances_clock():
    env = Environment()
    link = PCIeLink(env, PCIE_GEN1_X16)

    def proc(env):
        elapsed = yield from link.transfer(3_000_000, H2D)
        return elapsed

    elapsed = env.run(until=env.process(proc(env)))
    assert env.now == pytest.approx(link.duration(3_000_000, H2D))
    assert elapsed == pytest.approx(env.now)


def test_pcie_directions_are_independent():
    env = Environment()
    link = PCIeLink(env, PCIE_GEN1_X16)

    def up(env):
        yield from link.transfer(30_000_000, H2D)

    def down(env):
        yield from link.transfer(30_000_000, D2H)

    env.process(up(env))
    env.process(down(env))
    env.run()
    # Full duplex: total time is the max of the two, not the sum.
    assert env.now == pytest.approx(link.duration(30_000_000, D2H))


def test_pcie_same_direction_serialises():
    env = Environment()
    link = PCIeLink(env, PCIE_GEN1_X16)

    def copy(env):
        yield from link.transfer(30_000_000, H2D)

    env.process(copy(env))
    env.process(copy(env))
    env.run()
    assert env.now == pytest.approx(2 * link.duration(30_000_000, H2D))


def test_pcie_tracks_bytes_moved():
    env = Environment()
    link = PCIeLink(env, PCIE_GEN1_X16)

    def proc(env):
        yield from link.transfer(1000, H2D)
        yield from link.transfer(500, D2H)

    env.run(until=env.process(proc(env)))
    assert link.bytes_moved == {H2D: 1000, D2H: 500}


def test_pcie_rejects_bad_arguments():
    env = Environment()
    link = PCIeLink(env, PCIE_GEN1_X16)
    with pytest.raises(ValueError):
        list(link.transfer(-1, H2D))
    with pytest.raises(ValueError):
        list(link.transfer(10, "sideways"))


# ---------------------------------------------------------------------------
# GPU
# ---------------------------------------------------------------------------

def test_gpu_kernel_charges_simulated_time():
    env = Environment()
    node = make_node(env)
    gpu = node.gpus[0]
    launch = KernelLaunch(name="k", grid_blocks=240, block_threads=256, flops=1e9)

    def proc(env):
        yield from gpu.run_kernel(launch)

    env.run(until=env.process(proc(env)))
    assert env.now == pytest.approx(gpu.kernel_time(launch))
    assert gpu.meter.get("kernel") == pytest.approx(env.now)
    assert gpu.kernels_launched == 1


def test_gpu_kernels_serialise_on_compute_engine():
    env = Environment()
    gpu = make_node(env).gpus[0]
    launch = KernelLaunch(name="k", grid_blocks=240, block_threads=256, flops=1e9)

    def proc(env):
        yield from gpu.run_kernel(launch)

    env.process(proc(env))
    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(2 * gpu.kernel_time(launch))


def test_gpu_copy_overlaps_kernel():
    env = Environment()
    gpu = make_node(env).gpus[0]
    launch = KernelLaunch(name="k", grid_blocks=240, block_threads=256, flops=50e9)

    def kernel_proc(env):
        yield from gpu.run_kernel(launch)

    def copy_proc(env):
        yield from gpu.copy_h2d(10_000_000)

    env.process(kernel_proc(env))
    env.process(copy_proc(env))
    env.run()
    t_kernel = gpu.kernel_time(launch)
    t_copy = gpu.link.duration(10_000_000, H2D)
    # Overlap: total = max, not sum.
    assert env.now == pytest.approx(max(t_kernel, t_copy))


def test_sibling_gpus_contend_for_pcie():
    env = Environment()
    node = make_node(env)
    g0, g1, g2 = node.gpus[0], node.gpus[1], node.gpus[2]
    assert g0.link is g1.link      # paired on one cable
    assert g0.link is not g2.link  # second cable

    def copy(gpu):
        def proc(env):
            yield from gpu.copy_h2d(30_000_000)
        return proc

    env.process(copy(g0)(env))
    env.process(copy(g1)(env))
    env.process(copy(g2)(env))
    env.run()
    # g0+g1 serialise; g2 rides its own link concurrently.
    assert env.now == pytest.approx(2 * g0.link.duration(30_000_000, H2D))


def test_gpu_memory_budget_enforced():
    env = Environment()
    gpu = make_node(env).gpus[0]
    gpu.alloc(GT200.mem_capacity // 2)
    with pytest.raises(OutOfDeviceMemory):
        gpu.alloc(GT200.mem_capacity)


def test_gpu_alloc_free_roundtrip():
    env = Environment()
    gpu = make_node(env).gpus[0]
    a = gpu.alloc(1024, tag="x")
    assert not gpu.fits(GT200.mem_capacity)
    gpu.free(a)
    assert gpu.fits(GT200.mem_capacity)


# ---------------------------------------------------------------------------
# CPU
# ---------------------------------------------------------------------------

def test_cpu_cores_limit_parallelism():
    env = Environment()
    node = make_node(env)

    def task(env):
        yield from node.cpu.run(1.0)

    for _ in range(8):  # 8 tasks on 4 cores
        env.process(task(env))
    env.run()
    assert env.now == pytest.approx(2.0)


def test_cpu_flops_pricing():
    env = Environment()
    cpu = make_node(env).cpu
    flops = cpu.spec.clock_hz * cpu.spec.flops_per_core_cycle  # 1 core-second
    assert cpu.flops_time(flops) == pytest.approx(1.0)


def test_cpu_bytes_pricing():
    env = Environment()
    cpu = make_node(env).cpu
    assert cpu.bytes_time(cpu.spec.byte_throughput_per_core) == pytest.approx(1.0)


def test_cpu_meter_accumulates():
    env = Environment()
    cpu = make_node(env).cpu

    def proc(env):
        yield from cpu.run(0.5, tag="bin")
        yield from cpu.run(0.25, tag="bin")

    env.run(until=env.process(proc(env)))
    assert cpu.meter.get("bin") == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Node assembly
# ---------------------------------------------------------------------------

def test_build_nodes_count_validation():
    env = Environment()
    with pytest.raises(ValueError):
        build_nodes(env, ACCELERATOR, 0)
    with pytest.raises(ValueError):
        build_nodes(env, ACCELERATOR, 33)


def test_build_nodes_unique_names():
    env = Environment()
    nodes = build_nodes(env, ACCELERATOR, 3)
    names = {g.name for n in nodes for g in n.gpus}
    assert len(names) == 12

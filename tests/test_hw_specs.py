"""Unit tests for hardware specs and the Accelerator preset."""

import pytest

from repro.hw.specs import (
    ACCELERATOR,
    ACCELERATOR_NODE,
    GT200,
    OPTERON_2216_2P,
    ClusterSpec,
    GPUSpec,
)
from repro.util.units import GIB


def test_gt200_core_count():
    assert GT200.core_count == 240  # 30 SMs x 8 SPs


def test_gt200_peak_flops_in_published_range():
    # 240 cores x 1.296 GHz x 2 flops (MAD) = 622 GFLOP/s
    assert GT200.peak_flops == pytest.approx(622e9, rel=0.01)


def test_gt200_memory_capped_at_1gib():
    # Paper: "we limit RAM usage to 1 GB".
    assert GT200.mem_capacity == 1 * GIB


def test_gt200_has_no_float_atomics():
    # Paper Section 5.3.4 relies on this.
    assert not GT200.has_float_atomics


def test_gpu_spec_with_memory_returns_modified_copy():
    bigger = GT200.with_memory(4 * GIB)
    assert bigger.mem_capacity == 4 * GIB
    assert GT200.mem_capacity == 1 * GIB
    assert bigger.sm_count == GT200.sm_count


def test_gpu_spec_validation():
    with pytest.raises(ValueError):
        GPUSpec(
            name="bad",
            sm_count=0,
            cores_per_sm=8,
            clock_hz=1e9,
            mem_capacity=1,
            mem_bandwidth=1,
        )


def test_opteron_core_count():
    assert OPTERON_2216_2P.core_count == 4  # 2 sockets x 2 cores


def test_node_pcie_links_pair_gpus():
    # 4 GPUs, 2 per PCI-e cable => 2 links.
    assert ACCELERATOR_NODE.pcie_links == 2


def test_cluster_total_gpus():
    assert ACCELERATOR.total_gpus == 128  # 32 nodes x 4


def test_placement_packs_nodes_first():
    placement = ACCELERATOR.placement(6)
    assert placement == ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1))


def test_placement_rejects_overflow():
    small = ClusterSpec(name="tiny", node=ACCELERATOR_NODE, node_count=1)
    with pytest.raises(ValueError):
        small.placement(5)


def test_placement_rejects_zero():
    with pytest.raises(ValueError):
        ACCELERATOR.placement(0)


@pytest.mark.parametrize(
    "gpus,nodes", [(1, 1), (4, 1), (5, 2), (8, 2), (64, 16), (128, 32)]
)
def test_nodes_used(gpus, nodes):
    assert ACCELERATOR.nodes_used(gpus) == nodes


def test_max_resident_threads():
    assert GT200.max_resident_threads == 30 * 1024

"""Tests for network topologies."""

import pytest

from repro.hw.specs import QDR_INFINIBAND
from repro.net import FatTreeTopology, StarTopology


def test_star_route_goes_through_switch():
    topo = StarTopology(4, QDR_INFINIBAND)
    route = topo.route(0, 3)
    assert route == [(0, StarTopology.SWITCH), (StarTopology.SWITCH, 3)]


def test_star_self_route_is_empty():
    topo = StarTopology(4, QDR_INFINIBAND)
    assert topo.route(2, 2) == []
    assert topo.path_bandwidth(2, 2) == float("inf")


def test_star_path_latency_sums_half_latencies():
    topo = StarTopology(4, QDR_INFINIBAND)
    assert topo.path_latency(0, 1) == pytest.approx(QDR_INFINIBAND.latency)


def test_star_path_bandwidth_is_nic_bandwidth():
    topo = StarTopology(8, QDR_INFINIBAND)
    assert topo.path_bandwidth(0, 7) == QDR_INFINIBAND.bandwidth


def test_star_single_node_valid():
    topo = StarTopology(1, QDR_INFINIBAND)
    assert topo.route(0, 0) == []


def test_star_rejects_zero_nodes():
    with pytest.raises(ValueError):
        StarTopology(0, QDR_INFINIBAND)


def test_route_cache_is_consistent():
    topo = StarTopology(4, QDR_INFINIBAND)
    assert topo.route(1, 2) is topo.route(1, 2)


def test_fat_tree_same_leaf_stays_local():
    topo = FatTreeTopology(16, QDR_INFINIBAND, radix=8)
    route = topo.route(0, 7)  # both under leaf0
    assert route == [(0, "leaf0"), ("leaf0", 7)]


def test_fat_tree_cross_leaf_goes_through_core():
    topo = FatTreeTopology(16, QDR_INFINIBAND, radix=8)
    route = topo.route(0, 15)
    assert ("leaf0", "core") in route or ("core", "leaf1") in route


def test_fat_tree_cross_leaf_route_is_leaf_core_leaf():
    topo = FatTreeTopology(16, QDR_INFINIBAND, radix=8)
    assert topo.route(15, 0) == [
        (15, "leaf1"), ("leaf1", "core"), ("core", "leaf0"), ("leaf0", 0)
    ]
    assert topo.path_latency(15, 0) == pytest.approx(2 * QDR_INFINIBAND.latency)


def test_route_rejects_a_node_outside_the_cluster():
    topo = StarTopology(4, QDR_INFINIBAND)
    with pytest.raises(ValueError):
        topo.route(0, 4)


def test_validate_rejects_a_route_over_a_missing_cable():
    topo = StarTopology(3, QDR_INFINIBAND)
    del topo.links[(2, StarTopology.SWITCH)]
    with pytest.raises(ValueError, match="no cable"):
        topo.validate()


def test_fat_tree_full_bisection_keeps_nic_bottleneck():
    topo = FatTreeTopology(16, QDR_INFINIBAND, radix=8, oversubscription=1.0)
    assert topo.path_bandwidth(0, 15) == QDR_INFINIBAND.bandwidth


def test_fat_tree_oversubscription_reduces_uplink():
    topo = FatTreeTopology(16, QDR_INFINIBAND, radix=8, oversubscription=16.0)
    # Uplink bw = nic * 8 / 16 = nic / 2 => becomes the bottleneck.
    assert topo.path_bandwidth(0, 15) == pytest.approx(QDR_INFINIBAND.bandwidth / 2)


def test_fat_tree_single_leaf_has_no_core():
    topo = FatTreeTopology(8, QDR_INFINIBAND, radix=8)
    assert all("core" not in cable for cable in topo.links)

"""Cluster network topologies.

The paper's cluster uses QDR InfiniBand through a switch; for MPI
point-to-point traffic the observable contention points are each node's
NIC (tx and rx) and, for adversarial patterns, the switch core.  A
topology is its cables — a dict of per-cable bandwidth/latency
attributes — and a closed-form route between any two cluster nodes; the
fabric (:mod:`repro.net.fabric`) instantiates simulation resources per
cable direction and holds every one a message's route crosses.

Provided topologies:

* :class:`StarTopology` — every node connects to one non-blocking
  switch: contention only at NICs.  This matches a single-switch QDR
  IB cluster like Accelerator.  Route: ``n → switch → m``.
* :class:`FatTreeTopology` — two-level fat tree with configurable
  oversubscription, for experiments about constrained bisection.
  Route: ``n → leaf → [core → leaf′] → m``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from ..hw.specs import NICSpec
from ..util.validation import check_positive

__all__ = ["LinkAttrs", "Topology", "StarTopology", "FatTreeTopology"]


@dataclass(frozen=True)
class LinkAttrs:
    """Physical attributes of one (undirected) cable."""

    bandwidth: float   #: bytes/s per direction
    latency: float     #: seconds per traversal


class Topology:
    """Cables with per-cable attributes, and cached routes.

    Node identifiers: cluster nodes are integers ``0..n-1``; internal
    switches use string identifiers (e.g. ``"switch"``).  A subclass
    adds its cables and names the nodes a message visits
    (:meth:`_hops`).
    """

    def __init__(self, n_nodes: int) -> None:
        check_positive(n_nodes, "n_nodes")
        self.n_nodes = n_nodes
        #: one entry per cable, keyed by its endpoints in the order added
        self.links: Dict[Tuple[Hashable, Hashable], LinkAttrs] = {}
        self._route_cache: Dict[Tuple[int, int], List[Tuple[Hashable, Hashable]]] = {}

    def add_link(self, u: Hashable, v: Hashable, attrs: LinkAttrs) -> None:
        self.links[(u, v)] = attrs

    def link_attrs(self, u: Hashable, v: Hashable) -> LinkAttrs:
        attrs = self.links.get((u, v))
        return attrs if attrs is not None else self.links[(v, u)]

    def _hops(self, src: int, dst: int) -> List[Hashable]:
        """Every node a message from ``src`` to ``dst`` visits, both ends
        included (``src != dst``)."""
        raise NotImplementedError

    def route(self, src: int, dst: int) -> List[Tuple[Hashable, Hashable]]:
        """Ordered list of directed edges from ``src`` to ``dst``."""
        if src == dst:
            return []
        key = (src, dst)
        if key not in self._route_cache:
            for n in key:
                if not (0 <= n < self.n_nodes):
                    raise ValueError(f"node {n} out of range [0, {self.n_nodes})")
            path = self._hops(src, dst)
            self._route_cache[key] = list(zip(path, path[1:]))
        return self._route_cache[key]

    def path_latency(self, src: int, dst: int) -> float:
        return sum(self.link_attrs(u, v).latency for u, v in self.route(src, dst))

    def path_bandwidth(self, src: int, dst: int) -> float:
        """Bottleneck bandwidth along the route (inf for self-sends)."""
        edges = self.route(src, dst)
        if not edges:
            return float("inf")
        return min(self.link_attrs(u, v).bandwidth for u, v in edges)

    def validate(self) -> None:
        """Every hop of every node's route to node 0 is a cable, so all
        cluster nodes are mutually reachable."""
        for n in range(1, self.n_nodes):
            for u, v in self.route(n, 0):
                if (u, v) not in self.links and (v, u) not in self.links:
                    raise ValueError(f"route {n}->0 crosses {u}-{v}, which is no cable")


class StarTopology(Topology):
    """All nodes on one non-blocking switch (single-switch IB cluster)."""

    SWITCH = "switch"

    def __init__(self, n_nodes: int, nic: NICSpec) -> None:
        super().__init__(n_nodes)
        self.nic = nic
        attrs = LinkAttrs(bandwidth=nic.bandwidth, latency=nic.latency / 2)
        if n_nodes > 1:
            for n in range(n_nodes):
                self.add_link(n, self.SWITCH, attrs)
        self.validate()

    def _hops(self, src: int, dst: int) -> List[Hashable]:
        return [src, self.SWITCH, dst]


class FatTreeTopology(Topology):
    """Two-level fat tree: leaf switches of ``radix`` nodes, one core.

    ``oversubscription`` divides uplink bandwidth: 1.0 is full bisection
    (behaves like a star), 4.0 means 4:1 oversubscribed uplinks.
    """

    CORE = "core"

    def __init__(
        self,
        n_nodes: int,
        nic: NICSpec,
        radix: int = 8,
        oversubscription: float = 1.0,
    ) -> None:
        super().__init__(n_nodes)
        check_positive(radix, "radix")
        check_positive(oversubscription, "oversubscription")
        self.nic = nic
        self.radix = radix
        edge = LinkAttrs(bandwidth=nic.bandwidth, latency=nic.latency / 2)
        n_leaves = (n_nodes + radix - 1) // radix
        uplink = LinkAttrs(
            bandwidth=nic.bandwidth * radix / oversubscription,
            latency=nic.latency / 2,
        )
        if n_nodes > 1:
            for n in range(n_nodes):
                self.add_link(n, self._leaf(n), edge)
            if n_leaves > 1:
                for l in range(n_leaves):
                    self.add_link(f"leaf{l}", self.CORE, uplink)
        self.validate()

    def _leaf(self, n: int) -> str:
        return f"leaf{n // self.radix}"

    def _hops(self, src: int, dst: int) -> List[Hashable]:
        a, b = self._leaf(src), self._leaf(dst)
        return [src, a, dst] if a == b else [src, a, self.CORE, b, dst]

"""Cluster network topologies (networkx-backed).

The paper's cluster uses QDR InfiniBand through a switch; for MPI
point-to-point traffic the observable contention points are each node's
NIC (tx and rx) and, for adversarial patterns, the switch core.  We
model topologies as graphs whose edges carry bandwidth/latency
attributes; the fabric (:mod:`repro.net.fabric`) instantiates
simulation resources per edge direction and routes messages along
shortest paths.

Provided topologies:

* :class:`StarTopology` — every node connects to one non-blocking
  switch: contention only at NICs.  This matches a single-switch QDR
  IB cluster like Accelerator.
* :class:`FatTreeTopology` — two-level fat tree with configurable
  oversubscription, for experiments about constrained bisection.

``networkx`` is imported inside the three methods that use it:
``import repro`` reaches this module, but only the ``sim`` backend builds
a topology — a real-backend rank or the job service should not pay
~0.1 s and ~14 MiB for a graph library it never calls.
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
    """A network graph with per-edge attributes and cached routes.

    Node identifiers: cluster nodes are integers ``0..n-1``; internal
    switches use string identifiers (e.g. ``"sw0"``).
    """

    def __init__(self, n_nodes: int) -> None:
        import networkx as nx

        check_positive(n_nodes, "n_nodes")
        self.n_nodes = n_nodes
        self.graph = nx.Graph()
        self._route_cache: Dict[Tuple[int, int], List[Tuple[Hashable, Hashable]]] = {}

    def add_link(self, u: Hashable, v: Hashable, attrs: LinkAttrs) -> None:
        self.graph.add_edge(u, v, attrs=attrs)

    def link_attrs(self, u: Hashable, v: Hashable) -> LinkAttrs:
        return self.graph.edges[u, v]["attrs"]

    def route(self, src: int, dst: int) -> List[Tuple[Hashable, Hashable]]:
        """Ordered list of directed edges from ``src`` to ``dst``."""
        if src == dst:
            return []
        key = (src, dst)
        if key not in self._route_cache:
            import networkx as nx

            path = nx.shortest_path(self.graph, src, dst)
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
        """All cluster nodes must be mutually reachable."""
        import networkx as nx

        for n in range(self.n_nodes):
            if n not in self.graph:
                raise ValueError(f"cluster node {n} missing from topology graph")
        if self.n_nodes > 1 and not nx.is_connected(self.graph):
            raise ValueError("topology graph is not connected")


class StarTopology(Topology):
    """All nodes on one non-blocking switch (single-switch IB cluster)."""

    SWITCH = "switch"

    def __init__(self, n_nodes: int, nic: NICSpec) -> None:
        super().__init__(n_nodes)
        self.nic = nic
        attrs = LinkAttrs(bandwidth=nic.bandwidth, latency=nic.latency / 2)
        if n_nodes == 1:
            self.graph.add_node(0)
        else:
            for n in range(n_nodes):
                self.add_link(n, self.SWITCH, attrs)
        self.validate()


class FatTreeTopology(Topology):
    """Two-level fat tree: leaf switches of ``radix`` nodes, one core.

    ``oversubscription`` divides uplink bandwidth: 1.0 is full bisection
    (behaves like a star), 4.0 means 4:1 oversubscribed uplinks.
    """

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
        edge = LinkAttrs(bandwidth=nic.bandwidth, latency=nic.latency / 2)
        n_leaves = (n_nodes + radix - 1) // radix
        uplink = LinkAttrs(
            bandwidth=nic.bandwidth * radix / oversubscription,
            latency=nic.latency / 2,
        )
        if n_nodes == 1:
            self.graph.add_node(0)
        else:
            for n in range(n_nodes):
                self.add_link(n, f"leaf{n // radix}", edge)
            if n_leaves > 1:
                for l in range(n_leaves):
                    self.add_link(f"leaf{l}", "core", uplink)
        self.validate()

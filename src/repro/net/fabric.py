"""The network fabric: moves bytes between nodes with contention.

Every directed edge of the topology gets a capacity-1 transmission
resource; a message holds every edge of its route for
``latency + bytes/bottleneck_bw`` (store-and-forward is negligible for
the multi-megabyte shuffles MapReduce generates, so we model cut-through
with route-wide occupancy).

Intra-node traffic (between two GPU workers on one node) never touches
the NIC: it is a host-memory copy priced at the node's memcpy
bandwidth, matching how MVAPICH2 ships same-node messages through
shared memory.
"""

from __future__ import annotations

from typing import Dict, Generator, Hashable, Tuple

from .topology import Topology
from ..hw.specs import CPUSpec
from ..sim import Environment, Resource

__all__ = ["Fabric"]

#: a node pair's channels along the route, latency and bottleneck bandwidth
Path = Tuple[Tuple[Resource, ...], float, float]


class Fabric:
    """Contention-aware byte mover over a :class:`Topology`."""

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        cpu: CPUSpec,
        loopback_latency: float = 1e-6,
    ) -> None:
        self.env = env
        self.topology = topology
        self.cpu = cpu
        self.loopback_latency = loopback_latency
        #: shared-memory copy bandwidth for same-node messages
        self.loopback_bandwidth = cpu.mem_bandwidth / 2  # read + write
        self._channels: Dict[Tuple[Hashable, Hashable], Resource] = {}
        self._paths: Dict[Tuple[int, int], Path] = {}
        # Fat links (fat-tree uplinks) carry several concurrent
        # NIC-rate transfers: channel capacity scales with the ratio of
        # the link's bandwidth to the thinnest edge's.
        self._base_bw = min(
            (attrs.bandwidth for attrs in topology.links.values()), default=1.0
        )
        self.bytes_sent = 0
        self.messages_sent = 0

    def _channel(self, u: Hashable, v: Hashable) -> Resource:
        key = (u, v)
        if key not in self._channels:
            bw = self.topology.link_attrs(u, v).bandwidth
            capacity = max(1, int(round(bw / self._base_bw)))
            self._channels[key] = Resource(
                self.env, capacity=capacity, name=f"ch:{u}->{v}"
            )
        return self._channels[key]

    def path(self, src: int, dst: int) -> Path:
        """The channels a message from node ``src`` to node ``dst``
        holds (none for a same-node copy), its latency and its
        bottleneck bandwidth; derived once per node pair."""
        key = (src, dst)
        path = self._paths.get(key)
        if path is None:
            if src == dst:
                path = ((), self.loopback_latency, self.loopback_bandwidth)
            else:
                path = (
                    tuple(self._channel(u, v) for u, v in self.topology.route(src, dst)),
                    self.topology.path_latency(src, dst),
                    self.topology.path_bandwidth(src, dst),
                )
            self._paths[key] = path
        return path

    def duration(self, src: int, dst: int, nbytes: int) -> float:
        """Unloaded transfer time for ``nbytes`` from ``src`` to ``dst``."""
        _, latency, bandwidth = self.path(src, dst)
        return latency + nbytes / bandwidth

    def send(self, src: int, dst: int, nbytes: int) -> Generator:
        """Process: move ``nbytes`` from node ``src`` to node ``dst``.

        Returns the elapsed time including queueing on busy links.
        """
        if nbytes < 0:
            raise ValueError("message size must be non-negative")
        start = self.env.now
        channels, latency, bandwidth = self.path(src, dst)
        requests = [channel.request() for channel in channels]
        for req in requests:
            yield req
        try:
            yield self.env.timeout(latency + nbytes / bandwidth)
        finally:
            for channel, req in zip(channels, requests):
                channel.release(req)
        self.bytes_sent += int(nbytes)
        self.messages_sent += 1
        return self.env.now - start

"""Host CPU model: a pool of cores with throughput-based task pricing.

GPMR uses the host CPU for exactly one pipeline stage — **Bin**, the
network-transmission substage that runs in its own thread — plus
whatever the user's chunk (de)serialisation costs.  The Phoenix
baseline (:mod:`repro.baselines.phoenix`) prices entire MapReduce jobs
on this model.
"""

from __future__ import annotations

from typing import Generator

from .meter import Meter
from .specs import CPUSpec
from ..sim import Environment, Resource

__all__ = ["HostCPU"]


class HostCPU:
    """All sockets of one node as a single core pool."""

    def __init__(self, env: Environment, spec: CPUSpec, name: str = "cpu") -> None:
        self.env = env
        self.spec = spec
        self.name = name
        self.cores = Resource(env, capacity=spec.core_count, name=f"{name}:cores")
        self.meter = Meter()

    # -- pricing -------------------------------------------------------------
    def flops_time(self, flops: float) -> float:
        """Single-core time for ``flops`` floating-point operations."""
        per_core = self.spec.clock_hz * self.spec.flops_per_core_cycle
        return flops / per_core

    def bytes_time(self, nbytes: float) -> float:
        """Single-core time to stream ``nbytes`` (memcpy/serialisation)."""
        return nbytes / self.spec.byte_throughput_per_core

    # -- execution -----------------------------------------------------------
    def run(self, seconds: float, tag: str = "cpu") -> Generator:
        """Process: occupy one core for ``seconds``."""
        if seconds < 0:
            raise ValueError("duration must be non-negative")
        with self.cores.request() as req:
            yield req
            if seconds:
                yield self.env.timeout(seconds)
        self.meter.add(tag, seconds)
        return seconds

    def process_bytes(self, nbytes: float, tag: str = "memcpy") -> Generator:
        """Process: single-core byte handling of ``nbytes``."""
        result = yield from self.run(self.bytes_time(nbytes), tag=tag)
        return result

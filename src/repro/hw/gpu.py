"""The simulated GPU device.

A :class:`GPU` combines:

* a :class:`~repro.hw.memory.DeviceAllocator` enforcing the device
  memory budget (1 GB per GPU in the paper's runs),
* a capacity-1 *compute engine* — GT200 runs one kernel at a time,
* a shared :class:`~repro.hw.pcie.PCIeLink` for h2d/d2h copies (copies
  and kernels overlap because they occupy different resources — this is
  what makes GPMR's streaming chunk pipeline effective),
* a :class:`~repro.hw.meter.Meter` recording busy time per activity.

The *functional* side of kernels (what they compute) lives in the
primitive library and the apps; the GPU only prices and serialises
them.
"""

from __future__ import annotations

from typing import Generator

from .kernel import KernelLaunch, kernel_duration
from .memory import Allocation, DeviceAllocator
from .meter import Meter
from .pcie import D2H, H2D, PCIeLink
from .specs import GPUSpec
from ..sim import Environment, Resource

__all__ = ["GPU"]


class GPU:
    """One simulated GPU attached to a node."""

    def __init__(
        self,
        env: Environment,
        spec: GPUSpec,
        link: PCIeLink,
        device_index: int = 0,
        name: str = "",
    ) -> None:
        self.env = env
        self.spec = spec
        self.link = link
        self.device_index = device_index
        self.name = name or f"gpu{device_index}"
        self.allocator = DeviceAllocator(spec.mem_capacity)
        self._compute = Resource(env, capacity=1, name=f"{self.name}:compute")
        self.meter = Meter()
        self.kernels_launched = 0

    # -- memory ------------------------------------------------------------
    def alloc(self, nbytes: int, tag: str = "") -> Allocation:
        """Reserve device memory (raises OutOfDeviceMemory when over budget)."""
        return self.allocator.alloc(nbytes, tag=tag)

    def free(self, allocation: Allocation) -> None:
        self.allocator.free(allocation)

    def fits(self, nbytes: int) -> bool:
        return self.allocator.would_fit(nbytes)

    # -- execution -----------------------------------------------------------
    def kernel_time(self, launch: KernelLaunch) -> float:
        """Unloaded duration of a launch (no queueing)."""
        return kernel_duration(self.spec, launch)

    def run_kernel(self, launch: KernelLaunch) -> Generator:
        """Process: execute ``launch`` on the compute engine.

        Returns the kernel's simulated duration (excluding queueing).
        """
        duration = kernel_duration(self.spec, launch)
        with self._compute.request() as req:
            yield req
            yield self.env.timeout(duration)
        self.kernels_launched += 1
        self.meter.add("kernel", duration)
        return duration

    def copy_h2d(self, nbytes: int, tag: str = "h2d") -> Generator:
        """Process: host-to-device copy over the shared PCI-e link."""
        elapsed = yield from self.link.transfer(nbytes, H2D)
        self.meter.add(tag, elapsed)
        return elapsed

    def copy_d2h(self, nbytes: int, tag: str = "d2h") -> Generator:
        """Process: device-to-host copy over the shared PCI-e link."""
        elapsed = yield from self.link.transfer(nbytes, D2H)
        self.meter.add(tag, elapsed)
        return elapsed

    def __repr__(self) -> str:  # pragma: no cover
        return f"<GPU {self.name} spec={self.spec.name!r}>"

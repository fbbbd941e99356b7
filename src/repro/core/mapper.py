"""Mapper interface: the user-written half of the Map stage.

GPMR's mappers are CUDA kernels with full GPU access and a free
item-to-thread mapping; here a mapper supplies the *functional* result
(:meth:`map_chunk`, vectorised NumPy) and the *temporal* price
(:meth:`map_cost`, a list of :class:`~repro.hw.kernel.KernelLaunch`
priced at the chunk's logical size).  The pair is the Python analogue
of "the user writes the kernels, the library streams the chunks".

Fusion needs no second kernel.  A fused run (``fused=True`` /
``PipelineConfig.fused``) calls the same :meth:`Mapper.map_chunk` and
folds each chunk's pairs at once: into the job's accumulator, or
through the job's per-chunk fold (``MapReduceJob.fused``, a
:class:`~repro.core.combine.PartialReducer`).  GPMR's speed case is
that map and partial reduce are *one* kernel per chunk, so a fused run
is priced as the map kernels alone.  Its per-rank outputs are
bit-identical to the staged run of the same job.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

from .chunk import Chunk
from .kvset import KeyValueSet
from ..hw.kernel import KernelLaunch

__all__ = ["Mapper"]


class Mapper(ABC):
    """Base class for map tasks."""

    #: bytes of device memory the mapper needs beyond input + emitted
    #: pairs (scratch buffers etc.); checked against the allocator.
    scratch_bytes: int = 0

    @abstractmethod
    def map_chunk(self, chunk: Chunk) -> KeyValueSet:
        """Produce the chunk's key-value pairs (functional, exact)."""

    @abstractmethod
    def map_cost(self, chunk: Chunk) -> List[KernelLaunch]:
        """Kernel launches this chunk costs, priced at logical scale."""

    def input_bytes(self, chunk: Chunk) -> int:
        """Bytes copied host-to-device for this chunk (logical)."""
        return chunk.logical_bytes

    def output_bytes_estimate(self, chunk: Chunk) -> int:
        """Device-memory reservation for emitted pairs (logical bytes).

        Defaults to the input size; mappers with expansion (multiple
        emits per item) should override so the allocator reserves
        enough.
        """
        return chunk.logical_bytes


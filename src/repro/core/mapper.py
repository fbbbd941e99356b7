"""Mapper interface: the user-written half of the Map stage.

GPMR's mappers are CUDA kernels with full GPU access and a free
item-to-thread mapping; here a mapper supplies the *functional* result
(:meth:`map_chunk`, vectorised NumPy) and the *temporal* price
(:meth:`map_cost`, a list of :class:`~repro.hw.kernel.KernelLaunch`
priced at the chunk's logical size).  The pair is the Python analogue
of "the user writes the kernels, the library streams the chunks".

:class:`FusedMapper` is the optional one-pass form of the same work:
GPMR's speed case is that map and partial reduce are *one* kernel per
chunk, so only the reduced result crosses PCI-e.  The staged pipeline
(``map_chunk`` → accumulate/partial-reduce → partition) materialises a
full :class:`~repro.core.kvset.KeyValueSet` at each stage; a fused
kernel folds each chunk into a small per-rank state (or a combined
per-chunk emission) in one call.  Attaching one to a job
(``MapReduceJob(fused=...)``) is purely additive: the staged stages
stay on the job and remain the bit-parity reference, and executors run
the fused path only when asked (``fused=True`` /
``PipelineConfig.fused``).  A fused run's per-rank outputs are
**bit-identical** to the staged run of the same job — same key/value
dtypes, same bytes — which is easiest to honour by sharing the per-chunk
arithmetic with the app's mapper (``apps/kmeans._chunk_table`` is the
pattern).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, List, Optional, Tuple

from .chunk import Chunk
from .kvset import KeyValueSet
from ..hw.kernel import KernelLaunch

__all__ = ["FusedMapper", "Mapper"]


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


class FusedMapper:
    """One call per chunk covering map + partial reduce (+ combine).

    A fused kernel threads an opaque per-rank ``state`` (running
    totals, or ``None`` for stateless apps) through every chunk the
    rank maps, and may emit a per-chunk :class:`KeyValueSet` (already
    partially reduced) for jobs whose results can't fold into bounded
    state.  Emissions are host KVSets: a kernel that computes on a
    device does its own transfers inside :meth:`map_reduce_chunk`.
    """

    def initial_state(self) -> Any:
        """Per-rank state before the first chunk (None for stateless)."""
        return None

    def map_reduce_chunk(
        self, chunk: Chunk, state: Any
    ) -> Tuple[Any, Optional[KeyValueSet]]:
        """Fold one chunk: return ``(new_state, emission_or_None)``."""
        raise NotImplementedError

    def finish_state(self, state: Any) -> Optional[KeyValueSet]:
        """Flush the per-rank state after the last chunk.

        Called exactly once per rank, *including* ranks that mapped
        zero chunks (``state`` is then the ``initial_state`` result) —
        mirroring the accumulator contract so every rank contributes
        its identity element to the reduce phase.  Return None for
        stateless kernels whose work is all in per-chunk emissions.
        """
        return None

"""Data-parallel primitive library (substrate S5 — the CUDPP role).

Each primitive the dataflow runs has two faces:

* a **functional** face — exact, vectorised NumPy computation;
* a **temporal** face — a ``*_cost(...)`` function returning
  :class:`~repro.hw.kernel.KernelLaunch` descriptors that the GPMR
  pipeline charges to the simulated GPU.

Functional: segmented reduce, LSD radix sort of key-value pairs, and
duplicate-key elimination over sorted keys.  Cost only: scan, stream
compaction and bitonic sort, which price the unique
epilogue and the Mars baseline's passes.
"""

from .common import DEFAULT_BLOCK, grid_for, launch_1d, uniform_element
from .compact import compact_cost
from .reduce import segmented_reduce, segmented_reduce_cost
from .scan import scan_cost
from .sort import bitonic_sort_cost, radix_sort_cost, radix_sort_pairs, significant_bits
from .unique import KeyRuns, unique_segments, unique_segments_cost

__all__ = [
    "DEFAULT_BLOCK",
    "grid_for",
    "launch_1d",
    "uniform_element",
    "scan_cost",
    "segmented_reduce",
    "segmented_reduce_cost",
    "radix_sort_pairs",
    "radix_sort_cost",
    "bitonic_sort_cost",
    "significant_bits",
    "compact_cost",
    "KeyRuns",
    "unique_segments",
    "unique_segments_cost",
]

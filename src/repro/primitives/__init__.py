"""Data-parallel primitive library (substrate S5 — the CUDPP role).

Each primitive has two faces:

* a **functional** face — exact, vectorised NumPy computation;
* a **temporal** face — a ``*_cost(...)`` function returning
  :class:`~repro.hw.kernel.KernelLaunch` descriptors that the GPMR
  pipeline charges to the simulated GPU.

Primitives: scan (plain/segmented), reduce (full/segmented), LSD radix
sort (keys / key-value pairs), stream compaction, histogram, and
duplicate-key elimination over sorted keys.
"""

from .common import DEFAULT_BLOCK, grid_for, launch_1d, uniform_element
from .compact import compact, compact_cost
from .histogram import histogram, histogram_cost
from .reduce import reduce_array, reduce_cost, segmented_reduce, segmented_reduce_cost
from .scan import exclusive_scan, inclusive_scan, scan_cost, segmented_scan
from .sort import (
    bitonic_sort_cost,
    radix_sort,
    radix_sort_cost,
    radix_sort_pairs,
    significant_bits,
)
from .unique import KeyRuns, unique_segments, unique_segments_cost

__all__ = [
    "DEFAULT_BLOCK",
    "grid_for",
    "launch_1d",
    "uniform_element",
    "exclusive_scan",
    "inclusive_scan",
    "segmented_scan",
    "scan_cost",
    "reduce_array",
    "segmented_reduce",
    "reduce_cost",
    "segmented_reduce_cost",
    "radix_sort",
    "radix_sort_pairs",
    "radix_sort_cost",
    "bitonic_sort_cost",
    "significant_bits",
    "compact",
    "compact_cost",
    "histogram",
    "histogram_cost",
    "KeyRuns",
    "unique_segments",
    "unique_segments_cost",
]

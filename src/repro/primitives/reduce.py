"""Segmented reduction: the Reduce stage's primitive and its cost.

Segmented reduce is the workhorse of the GPMR Reduce stage: after the
sort, each key's values are contiguous, and a segmented reduction
produces one output per key.  The cost model is a single streaming pass
(tree reduction in shared memory is bandwidth-bound at these sizes)
plus a short second pass over per-block partials.
"""

from __future__ import annotations


import numpy as np

from .common import as_1d_array, launch_1d, uniform_element
from ..hw.kernel import KernelLaunch

__all__ = ["segmented_reduce", "segmented_reduce_cost"]

_UFUNCS = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
    "prod": np.multiply,
}


def _reduceat(op, v, offsets, lengths, element):
    """``ufunc.reduceat`` over non-empty segments — or, for a uniform
    integer column under sum, ``lengths * element`` in reduceat's
    output dtype (add.reduce widens sub-word integers to the
    platform's)."""
    if element is None:
        return _UFUNCS[op].reduceat(v, offsets)
    wide = np.result_type(v.dtype, np.int_ if v.dtype.kind == "i" else np.uint)
    return lengths.astype(wide, copy=False) * wide.type(element)


def segmented_reduce(
    values: np.ndarray,
    segment_offsets: np.ndarray,
    op: str = "sum",
) -> np.ndarray:
    """Reduce each contiguous segment of ``values``.

    ``segment_offsets`` holds each segment's start index (monotonically
    non-decreasing, first element 0); segment ``i`` spans
    ``values[offsets[i]:offsets[i+1]]`` (last runs to the end).
    Zero-length segments reduce to the operator's identity (0 for sum).

    Summing a uniform *integer* column
    (:func:`~repro.primitives.common.uniform_element`) never touches
    it: each segment's sum is its length times the element, in the
    dtype ``np.add.reduceat`` would return (modular integer arithmetic,
    so the bytes are the same).  Floats keep the ``reduceat`` pass —
    ``c * v`` and ``v + ... + v`` round differently.
    """
    element = uniform_element(values) if op == "sum" else None
    if element is not None and element.dtype.kind not in "iu":
        element = None
    # With an element in hand only the column's length and dtype are read.
    v = as_1d_array(values) if element is None else values
    offsets = as_1d_array(segment_offsets, dtype=np.int64)
    if op not in _UFUNCS:
        raise ValueError(f"unknown reduction op {op!r}")
    if len(offsets) == 0:
        return np.empty(0, dtype=v.dtype)
    if offsets[0] != 0:
        raise ValueError("segment_offsets[0] must be 0")
    # One pass gives every segment's length (the last runs to the end
    # of ``values``); their minimum both validates the offsets and says
    # whether any segment is empty.
    lengths = np.diff(offsets, append=len(v))
    if lengths.min() > 0:
        # No empty segment (always so after ``unique_segments``):
        # reduceat sums *within* each segment — a cumsum-difference
        # formulation would leak floating-point error across segment
        # boundaries.
        return _reduceat(op, v, offsets, lengths, element)
    if lengths[:-1].min(initial=0) < 0:
        raise ValueError("segment_offsets must be non-decreasing")
    if lengths[-1] < 0:
        raise ValueError("segment offset beyond end of values")
    if op != "sum":
        raise ValueError(f"zero-length segment not supported for op {op!r}")
    # reduceat mishandles empty segments (it repeats the next value), so
    # run it over the non-empty offsets only: consecutive non-empty
    # offsets span exactly one real segment (empties contribute no
    # elements), and the empties keep the identity.
    out = np.zeros(len(offsets), dtype=v.dtype)
    nonempty = lengths > 0
    if nonempty.any():
        out[nonempty] = _reduceat(
            op, v, offsets[nonempty], lengths[nonempty], element
        )
    return out


def segmented_reduce_cost(
    n_values: int,
    n_segments: int,
    itemsize: int = 4,
    coalescing: float = 1.0,
) -> KernelLaunch:
    """Cost of a segmented reduction (one streaming pass + outputs)."""
    n_segments = max(int(n_segments), 1)
    return launch_1d(
        "segmented_reduce",
        max(n_values, 1),
        flops_per_item=1.0,
        read_bytes_per_item=float(itemsize),
        write_bytes_per_item=itemsize * n_segments / max(n_values, 1),
        coalescing=coalescing,
        items_per_thread=4,
        syncs=1,
    )

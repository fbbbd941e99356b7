"""Map input read lazily, at grant time: one reader, two file datasets.

:func:`repro.core.scheduler.resolve_chunks` turns a dataset with a
:attr:`~repro.workloads.base.Dataset.chunk_reader` into
descriptor-backed :class:`~repro.core.chunk.Chunk` objects, so the
driver schedules on descriptors and only worker ranks ever hold payload
arrays (one or two chunks at a time with grant prefetch): each rank
builds its own input, in parallel, and a run is not capped at driver
RAM.

:class:`DatasetReader` is the one reader.  It names a :class:`Dataset`
by its class and scalar constructor arguments, and pickles by that
*key*, not by state: a per-process cache rebuilds the dataset at most
once per worker — so a grant that crosses a process or socket boundary
carries bytes, not gigabytes, and kill -9 recovery works for free (the
respawned rank's fresh process rebuilds the dataset from the descriptor
it is re-granted).  Synthetic datasets re-materialise chunks from
``(seed, chunk_index)``; the two file datasets here read them from
disk:

* :class:`NpySpanReader` — row spans of an on-disk ``.npy`` array,
  opened ``mmap_mode="r"`` so only the touched span is ever resident.
* :class:`TextSpanReader` — byte spans of a text file, split on line
  boundaries (the paper's "separated at line boundaries"), scanned
  once at open without loading the body.

Both are built from a path and one integer, so a job over a file is
``ex.run(job, NpySpanReader(path, rows_per_chunk))``.  :func:`streamed`
is an alias for ``factory(**spec)``.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .base import Dataset, WorkItem
from ..util.validation import check_positive

__all__ = [
    "DatasetReader",
    "NpySpanReader",
    "TextSpanReader",
    "streamed",
]

_SCALARS = (type(None), bool, int, float, str, bytes, os.PathLike)

#: One reader per key per process: unpickling a granted descriptor
#: rebuilds the dataset at most once per worker, and every later grant
#: reuses it (mmap handle, boundary scan, built arrays and all).
_CACHE: Dict[Tuple, "DatasetReader"] = {}
_CACHE_LOCK = threading.Lock()


def _cached(key: Tuple) -> "DatasetReader":
    """Pickle target: the process's one reader for ``key``."""
    with _CACHE_LOCK:
        reader = _CACHE.get(key)
    if reader is not None:
        return reader
    module, qualname, spec_items = key
    factory = functools.reduce(
        getattr, qualname.split("."), importlib.import_module(module)
    )
    reader = DatasetReader(factory, dict(spec_items))
    with _CACHE_LOCK:
        return _CACHE.setdefault(key, reader)


class DatasetReader:
    """Reader over a dataset factory and its scalar spec.

    The key is the factory's import path plus the spec, which is why
    spec values must be scalars (or paths): the key must round-trip
    through pickle byte-identically.  ``dataset`` is the already-built
    ``factory(**spec)``, when the caller has it
    (:attr:`Dataset.chunk_reader` passes itself).
    """

    def __init__(
        self, factory: Any, spec: Dict[str, Any], dataset: Optional[Dataset] = None
    ) -> None:
        for k, v in spec.items():
            if not isinstance(v, _SCALARS):
                raise TypeError(
                    f"reader spec value {k}={v!r} is not a scalar; "
                    "reader keys must rebuild the dataset in another "
                    "process from scalars alone"
                )
        self.factory = factory
        self.spec = dict(spec)
        #: the built dataset — resident in whichever process owns this
        #: reader; built lazily where it was unpickled
        self._dataset = dataset
        self._build_lock = threading.Lock()

    @property
    def dataset(self) -> Dataset:
        if self._dataset is None:
            with self._build_lock:
                if self._dataset is None:
                    self._dataset = self.factory(**self.spec)
        return self._dataset

    def materialize(self, index: int) -> WorkItem:
        return self.dataset.chunk(index)

    def __reduce__(self):
        key = (
            self.factory.__module__,
            self.factory.__qualname__,
            tuple(sorted(self.spec.items())),
        )
        return (_cached, (key,))


class NpySpanReader(Dataset):
    """Row spans of an on-disk ``.npy`` array, mmap'd read-only.

    Only the rows of a built span are ever faulted into memory;
    :meth:`chunk` copies the span out of the map so the payload owns
    its bytes (safe to release the map, ship the array, mutate).
    """

    def __init__(self, path: Any, rows_per_chunk: int) -> None:
        super().__init__(seed=0)
        check_positive(rows_per_chunk, "rows_per_chunk")
        self.path = os.fspath(path)
        self.rows_per_chunk = int(rows_per_chunk)
        self._mmap = np.load(self.path, mmap_mode="r")
        if self._mmap.ndim < 1:
            raise ValueError("NpySpanReader needs an array with rows")
        self._rows = int(self._mmap.shape[0])
        self._row_bytes = int(self._mmap.dtype.itemsize)
        for dim in self._mmap.shape[1:]:
            self._row_bytes *= int(dim)

    def __reduce__(self):
        # Reopen the file where the pickle lands: the map itself would
        # pickle as a full copy of the array.
        return type(self), (self.path, self.rows_per_chunk)

    @property
    def n_chunks(self) -> int:
        return (self._rows + self.rows_per_chunk - 1) // self.rows_per_chunk

    def _span(self, index: int) -> Tuple[int, int]:
        self._check_index(index)
        lo = index * self.rows_per_chunk
        return lo, min(self._rows, lo + self.rows_per_chunk)

    def chunk_meta(self, index: int) -> Tuple[int, int]:
        lo, hi = self._span(index)
        return hi - lo, (hi - lo) * self._row_bytes

    def chunk(self, index: int) -> WorkItem:
        lo, hi = self._span(index)
        data = np.array(self._mmap[lo:hi])
        return WorkItem(index, data, hi - lo, (hi - lo) * self._row_bytes)


class TextSpanReader(Dataset):
    """Byte spans of a text file, split at line boundaries.

    The boundary scan at open reads forward from each ``chunk_bytes``
    target to the next newline, so spans always hold whole lines (no
    word is ever split across chunks) and the scan touches a few KB per
    boundary, not the file body.  Payloads are uint8 arrays, the same
    shape :class:`~repro.workloads.text.TextDataset` chunks take.
    """

    def __init__(self, path: Any, chunk_bytes: int) -> None:
        super().__init__(seed=0)
        check_positive(chunk_bytes, "chunk_bytes")
        self.path = os.fspath(path)
        self.chunk_bytes = int(chunk_bytes)
        self._offsets = self._scan_boundaries()

    def _scan_boundaries(self) -> Tuple[int, ...]:
        offsets = [0]
        with open(self.path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            while size - offsets[-1] > self.chunk_bytes:
                target = offsets[-1] + self.chunk_bytes
                fh.seek(target)
                boundary = size
                scanned = target
                while scanned < size:
                    blob = fh.read(1 << 16)
                    if not blob:
                        break
                    nl = blob.find(b"\n")
                    if nl >= 0:
                        boundary = scanned + nl + 1
                        break
                    scanned += len(blob)
                if boundary >= size:
                    break
                offsets.append(boundary)
        offsets.append(size)
        if size == 0:
            raise ValueError(f"text file {self.path!r} is empty")
        return tuple(offsets)

    @property
    def n_chunks(self) -> int:
        return len(self._offsets) - 1

    def _span(self, index: int) -> Tuple[int, int]:
        self._check_index(index)
        return self._offsets[index], self._offsets[index + 1]

    def chunk_meta(self, index: int) -> Tuple[int, int]:
        lo, hi = self._span(index)
        return hi - lo, hi - lo  # 1-byte elements, as in Table 1

    def chunk(self, index: int) -> WorkItem:
        lo, hi = self._span(index)
        with open(self.path, "rb") as fh:
            fh.seek(lo)
            blob = fh.read(hi - lo)
        return WorkItem(index, np.frombuffer(blob, dtype=np.uint8), hi - lo, hi - lo)


def streamed(factory: Any, **spec: Any) -> Dataset:
    """Alias for ``factory(**spec)``: every dataset rebuildable from
    scalars already resolves to descriptor chunks."""
    return factory(**spec)

"""Chunk readers: materialise map input lazily, at grant time.

A :class:`ChunkReader` describes a chunked input — how many chunks,
each chunk's logical size — and materialises any chunk's payload *on
demand*.  :func:`repro.core.scheduler.resolve_chunks` turns a
reader-backed dataset into descriptor-backed
:class:`~repro.core.chunk.Chunk` objects, so the driver schedules on
descriptors and only worker ranks ever hold payload arrays (one or
two chunks at a time with grant prefetch): each rank builds its own
input, in parallel, and a run is not capped at driver RAM.

Three reader kinds:

* :class:`DatasetReader` — wraps a synthetic :class:`Dataset`: chunks
  re-materialise deterministically from ``(seed, chunk_index)``, the
  property ``workloads.base`` has always guaranteed.  Every dataset
  rebuildable from scalars hands one out as
  :attr:`Dataset.chunk_reader`, so this is the default path.
* :class:`NpySpanReader` — row spans of an on-disk ``.npy`` array,
  opened ``mmap_mode="r"`` so only the touched span is ever resident.
* :class:`TextSpanReader` — byte spans of a text file, split on line
  boundaries (the paper's "separated at line boundaries"), scanned
  once at open without loading the body.

Readers pickle by *key*, not by state: ``__reduce__`` ships the few
scalars needed to rebuild the reader, and a per-process cache rebuilds
at most once per worker — so a grant that crosses a process or socket
boundary carries bytes, not gigabytes, and kill -9 recovery works for
free (the respawned rank's fresh process rebuilds the reader from the
descriptor it is re-granted).

:class:`StreamedDataset` is the :class:`Dataset` facade over a
file-backed reader; :func:`streamed` is an alias for ``factory(**spec)``.
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
    "ChunkReader",
    "DatasetReader",
    "NpySpanReader",
    "TextSpanReader",
    "StreamedDataset",
    "streamed",
]

_SCALARS = (type(None), bool, int, float, str, bytes)

#: One reader instance per (type, key) per process: unpickling a
#: granted descriptor rebuilds the reader at most once per worker, and
#: every later grant reuses it (mmap handle, boundary scan, built
#: dataset and all).
_CACHE: Dict[Tuple[type, Any], "ChunkReader"] = {}
_CACHE_LOCK = threading.Lock()


def _cached(cls: type, key: Any) -> "ChunkReader":
    """Pickle target: the process's one reader for ``(cls, key)``."""
    cache_key = (cls, key)
    with _CACHE_LOCK:
        inst = _CACHE.get(cache_key)
    if inst is not None:
        return inst
    inst = cls._from_key(key)
    with _CACHE_LOCK:
        return _CACHE.setdefault(cache_key, inst)


class ChunkReader:
    """A chunked input whose payloads materialise on demand.

    Subclasses implement the descriptor half (:attr:`n_chunks`,
    :meth:`chunk_meta`) without touching payload bytes, the
    materialisation half (:meth:`materialize`), and a :meth:`_key` of
    scalars sufficient to rebuild the reader in another process.
    """

    @property
    def n_chunks(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def chunk_meta(self, index: int) -> Tuple[int, int]:
        """``(logical_items, logical_bytes)`` of chunk ``index``,
        computed without materialising the payload."""
        raise NotImplementedError  # pragma: no cover - abstract

    def materialize(self, index: int) -> WorkItem:  # pragma: no cover
        raise NotImplementedError

    def _key(self) -> Tuple:  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def _from_key(cls, key: Tuple) -> "ChunkReader":  # pragma: no cover
        raise NotImplementedError

    def __reduce__(self):
        return (_cached, (type(self), self._key()))

    def _check_index(self, index: int) -> None:
        if not (0 <= index < self.n_chunks):
            raise IndexError(
                f"chunk index {index} out of range [0, {self.n_chunks})"
            )


class DatasetReader(ChunkReader):
    """Reader over a synthetic dataset factory and its scalar spec.

    Chunks re-materialise from ``(seed, chunk_index)`` — the
    determinism contract every :class:`Dataset` already keeps — so the
    "file" this reader streams from is the RNG.  The key is the
    factory's import path plus the spec, which is why spec values must
    be scalars: the key must round-trip through pickle byte-identically.
    ``dataset`` is the already-built ``factory(**spec)``, when the
    caller has it (:attr:`Dataset.chunk_reader` passes itself).
    """

    def __init__(
        self, factory: Any, spec: Dict[str, Any], dataset: Optional[Dataset] = None
    ) -> None:
        for k, v in spec.items():
            if not isinstance(v, _SCALARS):
                raise TypeError(
                    f"streamed spec value {k}={v!r} is not a scalar; "
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

    @property
    def n_chunks(self) -> int:
        return self.dataset.n_chunks

    def chunk_meta(self, index: int) -> Tuple[int, int]:
        return self.dataset.chunk_meta(index)

    def materialize(self, index: int) -> WorkItem:
        return self.dataset.chunk(index)

    def _key(self) -> Tuple:
        return (
            self.factory.__module__,
            self.factory.__qualname__,
            tuple(sorted(self.spec.items())),
        )

    @classmethod
    def _from_key(cls, key: Tuple) -> "DatasetReader":
        module, qualname, spec_items = key
        obj: Any = importlib.import_module(module)
        obj = functools.reduce(getattr, qualname.split("."), obj)
        return cls(obj, dict(spec_items))


class NpySpanReader(ChunkReader):
    """Row spans of an on-disk ``.npy`` array, mmap'd read-only.

    Only the rows of a materialised span are ever faulted into memory;
    :meth:`materialize` copies the span out of the map so the payload
    owns its bytes (safe to release the map, ship the array, mutate).
    """

    def __init__(self, path: Any, rows_per_chunk: int) -> None:
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

    def materialize(self, index: int) -> WorkItem:
        lo, hi = self._span(index)
        data = np.array(self._mmap[lo:hi])
        return WorkItem(
            index=index,
            data=data,
            logical_items=hi - lo,
            logical_bytes=(hi - lo) * self._row_bytes,
        )

    def _key(self) -> Tuple:
        return (self.path, self.rows_per_chunk)

    @classmethod
    def _from_key(cls, key: Tuple) -> "NpySpanReader":
        path, rows_per_chunk = key
        return cls(path, rows_per_chunk)


class TextSpanReader(ChunkReader):
    """Byte spans of a text file, split at line boundaries.

    The boundary scan at open reads forward from each ``chunk_bytes``
    target to the next newline, so spans always hold whole lines (no
    word is ever split across chunks) and the scan touches a few KB per
    boundary, not the file body.  Payloads are uint8 arrays, the same
    shape :class:`~repro.workloads.text.TextDataset` chunks take.
    """

    def __init__(self, path: Any, chunk_bytes: int) -> None:
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

    def materialize(self, index: int) -> WorkItem:
        lo, hi = self._span(index)
        with open(self.path, "rb") as fh:
            fh.seek(lo)
            blob = fh.read(hi - lo)
        data = np.frombuffer(blob, dtype=np.uint8)
        return WorkItem(
            index=index,
            data=data,
            logical_items=hi - lo,
            logical_bytes=hi - lo,
        )

    def _key(self) -> Tuple:
        return (self.path, self.chunk_bytes)

    @classmethod
    def _from_key(cls, key: Tuple) -> "TextSpanReader":
        path, chunk_bytes = key
        return cls(path, chunk_bytes)


class StreamedDataset(Dataset):
    """A :class:`Dataset` facade over a file-backed :class:`ChunkReader`
    (:class:`NpySpanReader`, :class:`TextSpanReader`), so a file runs
    through ``resolve_chunks`` as descriptor chunks."""

    def __init__(self, reader: ChunkReader) -> None:
        super().__init__(seed=0)
        self._reader = reader

    @property
    def chunk_reader(self) -> ChunkReader:
        return self._reader

    @property
    def n_chunks(self) -> int:
        return self._reader.n_chunks

    def chunk(self, index: int) -> WorkItem:
        return self._reader.materialize(index)

    def chunk_meta(self, index: int) -> Tuple[int, int]:
        return self._reader.chunk_meta(index)


def streamed(factory: Any, **spec: Any) -> Dataset:
    """Alias for ``factory(**spec)``: every dataset rebuildable from
    scalars already resolves to descriptor chunks."""
    return factory(**spec)

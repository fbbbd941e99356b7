"""Key-value sets: the currency of the GPMR pipeline.

A :class:`KeyValueSet` is structure-of-arrays — an integer key array
and a parallel value array (1-D scalars or 2-D fixed-width records) —
because that is the only layout a GPU emits efficiently (the paper's
WO/KMC discussions are largely about forcing data into this shape).

Like the workload chunks, a KVSet carries a ``scale``: each stored pair
stands for ``scale`` logical pairs, so PCI-e and network byte
accounting stays at paper scale when the functional payload is sampled
(``scale == 1.0`` in all correctness tests).

Because the layout is already two flat arrays, a KVSet also has a
**versioned binary codec** — :meth:`KeyValueSet.to_buffers` /
:meth:`KeyValueSet.from_buffers` plus the batch-level
:func:`pack_parts` / :func:`unpack_parts` — a small struct header
(dtypes, shape, scale) followed by the raw array bytes.  The process
backends' exchange hot path (streamed fabric frames) rides this codec;
pickle never touches payload bytes.

A host value column may be **uniform** — one element repeated, held
as the zero-stride read-only view ``np.broadcast_to(element, (n,))``
(SIO's ``<key, 1>``; recognised by
:func:`~repro.primitives.common.uniform_element`).  It *is* an ndarray:
``len``, ``dtype``, ``nbytes`` — hence ``pair_bytes``,
``nbytes_logical`` and every byte the stats and the cost model report —
describe the logical ``<key, value>`` layout, and any consumer that
knows nothing about it reads ``n`` equal values.  What it saves is
physical: :meth:`KeyValueSet.select` / :meth:`KeyValueSet.split_by`
gather keys only and re-broadcast, :meth:`KeyValueSet.concat` of
like-uniform parts stays uniform, the codec ships the single element
(header flag ``_FLAG_UNIFORM``; *wire* bytes halve, *logical* bytes do
not), and the sort and the integer segmented sum never touch the
column.  Mappers emit one with ``np.broadcast_to``; it is read-only, so
anything that must write into values copies first (as ``astype`` and
``np.concatenate`` do).

Both arrays are host NumPy arrays (anything array-like is coerced with
``np.asarray``); keys must be integer-typed.  A kernel that computes
on a device copies its results back inside
:meth:`~repro.core.mapper.FusedMapper.map_reduce_chunk` and emits host
KVSets, so nothing downstream of the map call sees a device array.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from ..primitives.common import uniform_element

__all__ = [
    "KeyValueSet",
    "CODEC_VERSION",
    "CodecError",
    "pack_parts",
    "unpack_parts",
]

#: Version byte of the binary KVSet codec; bump on any layout change.
CODEC_VERSION = 2

#: magic(2s) version(B) ndim(B) flags(B) key_dtype_len(H)
#: value_dtype_len(H) n_pairs(Q) value_width(Q) scale(d) — dtype
#: strings follow.
_KV_HEADER = struct.Struct("!2sBBBHHQQd")
_KV_MAGIC = b"KV"
#: header flag: the value buffer holds **one** element standing for all
#: ``n_pairs`` (a uniform column; rank-1 values only, ``n_pairs >= 1``)
_FLAG_UNIFORM = 1

#: manifest: magic(4s) version(B) reserved(3x) n_parts(I) — then one
#: ``u32 header_len + header`` record per part.
_MANIFEST_HEADER = struct.Struct("!4sB3xI")
_MANIFEST_MAGIC = b"KVPK"
_U32 = struct.Struct("!I")


class CodecError(ValueError):
    """A byte stream violated the binary KVSet codec."""


@dataclass
class KeyValueSet:
    """SoA key-value pairs with logical-scale byte accounting."""

    keys: np.ndarray
    values: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        self.keys = np.asarray(self.keys)
        self.values = np.asarray(self.values)
        if self.keys.ndim != 1:
            raise ValueError(f"keys must be 1-D, got shape {self.keys.shape}")
        if self.keys.dtype.kind not in "iu":
            raise TypeError(f"keys must be integers, got {self.keys.dtype}")
        if len(self.values) != len(self.keys):
            raise ValueError(
                f"values length {len(self.values)} != keys length {len(self.keys)}"
            )
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    # -- construction -----------------------------------------------------
    @classmethod
    def empty(
        cls,
        key_dtype=np.uint32,
        value_dtype=np.float64,
        value_width: int = 1,
        scale: float = 1.0,
    ) -> "KeyValueSet":
        shape = (0,) if value_width == 1 else (0, value_width)
        return cls(
            keys=np.empty(0, dtype=key_dtype),
            values=np.empty(shape, dtype=value_dtype),
            scale=scale,
        )

    @classmethod
    def concat(cls, parts: Sequence["KeyValueSet"]) -> "KeyValueSet":
        """Concatenate KVSets (must agree on value rank and scale).

        The result's value column is uniform only when every non-empty
        part's is, with one dtype and one element.
        """
        parts = [p for p in parts if p is not None]
        if not parts:
            raise ValueError("cannot concat zero KeyValueSets")
        nonempty = [p for p in parts if len(p)] or [parts[0]]
        scales = {p.scale for p in nonempty}
        if len(scales) > 1:
            raise ValueError(f"cannot concat KVSets with mixed scales {scales}")
        keys = np.concatenate([p.keys for p in nonempty])
        elements = [uniform_element(p.values) for p in nonempty]
        if all(e is not None for e in elements) and 1 == len(
            {(e.dtype, e.tobytes()) for e in elements}
        ):
            # Like-uniform parts (same dtype, same element bytes) stay
            # uniform; anything else materialises below.
            values = np.broadcast_to(elements[0], keys.shape)
        else:
            values = np.concatenate([p.values for p in nonempty])
        return cls(keys=keys, values=values, scale=nonempty[0].scale)

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.keys)

    @property
    def value_width(self) -> int:
        """Scalars per value record."""
        return 1 if self.values.ndim == 1 else int(self.values.shape[1])

    @property
    def pair_bytes(self) -> int:
        """Bytes of one (key, value) pair."""
        return int(self.keys.dtype.itemsize + self.values.dtype.itemsize * self.value_width)

    @property
    def nbytes_actual(self) -> int:
        """Bytes physically held in the sample."""
        return int(self.keys.nbytes + self.values.nbytes)

    @property
    def nbytes_logical(self) -> int:
        """Full-scale bytes this set represents (drives the cost model)."""
        return int(round(self.nbytes_actual * self.scale))

    @property
    def logical_pairs(self) -> int:
        return int(round(len(self) * self.scale))

    # -- transforms --------------------------------------------------------
    def select(self, mask_or_index: np.ndarray) -> "KeyValueSet":
        """Sub-set by boolean mask or index array (scale preserved).

        A uniform value column is re-broadcast to the selection's
        length instead of gathered.
        """
        keys = self.keys[mask_or_index]
        element = uniform_element(self.values)
        if element is None:
            values = self.values[mask_or_index]
        else:
            values = np.broadcast_to(element, keys.shape)
        return KeyValueSet(keys=keys, values=values, scale=self.scale)

    def split_by(self, part_ids: np.ndarray, n_parts: int) -> List["KeyValueSet"]:
        """Partition into ``n_parts`` KVSets by per-pair part id.

        Pairs for each part stay in their original relative order (the
        partitioner "arranges all key-value pairs for a specific
        Reducer consecutively").  ``part_ids`` may be any integer
        dtype; an id outside ``[0, n_parts)`` raises ``ValueError``.
        The parts are consecutive slices of one gathered copy — a
        counting sort on the ids, then one pass over the payload (keys
        only when the values are uniform), however many parts there
        are.
        """
        part_ids = np.asarray(part_ids)
        if len(part_ids) != len(self):
            raise ValueError("need one part id per pair")
        if part_ids.dtype.kind not in "iub":
            raise TypeError(f"part ids must be integers, got {part_ids.dtype}")
        if len(self) and (part_ids.min() < 0 or part_ids.max() >= n_parts):
            raise ValueError("part id out of range")
        # The smallest unsigned dtype that holds every id: NumPy's
        # stable argsort is a counting sort at 8/16 bits, a timsort at
        # the partitioners' native widths.
        narrow = part_ids.astype(np.min_scalar_type(max(n_parts - 1, 0)), copy=False)
        order = np.argsort(narrow, kind="stable")
        counts = np.bincount(narrow, minlength=n_parts)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        gathered = self.select(order)
        return [
            gathered.select(slice(bounds[p], bounds[p + 1]))
            for p in range(n_parts)
        ]

    # -- binary codec ------------------------------------------------------
    def to_buffers(self) -> Tuple[bytes, List[memoryview]]:
        """Encode as ``(header, [key_bytes, value_bytes])`` — no pickle.

        The header is a small versioned struct (dtypes, shape, scale);
        the buffers are the raw C-contiguous array bytes, exposed as
        ``uint8`` memoryviews so senders can splice them into shared
        memory or a wire stream without copying.  The exchange hot path
        of every real backend rides this codec.  A uniform value column
        is encoded as its single element under ``_FLAG_UNIFORM``.
        """
        keys = np.ascontiguousarray(self.keys)
        element = uniform_element(self.values)
        if element is None:
            values = np.ascontiguousarray(self.values)
        else:
            values = element.reshape(1)
        key_dtype = keys.dtype.str.encode("ascii")
        value_dtype = values.dtype.str.encode("ascii")
        header = _KV_HEADER.pack(
            _KV_MAGIC,
            CODEC_VERSION,
            values.ndim,
            0 if element is None else _FLAG_UNIFORM,
            len(key_dtype),
            len(value_dtype),
            len(self),
            self.value_width,
            self.scale,
        ) + key_dtype + value_dtype
        # ravel() first: a 0 x k view cannot be cast to bytes, and on a
        # contiguous array it is free.
        return header, [
            memoryview(keys.ravel()).cast("B"),
            memoryview(values.ravel()).cast("B"),
        ]

    @classmethod
    def from_buffers(cls, header: bytes, buffers: Sequence) -> "KeyValueSet":
        """Rebuild from :meth:`to_buffers` output, zero-copy.

        The returned arrays are *views* into ``buffers`` — the caller
        owns the backing memory's lifetime (e.g. a shared-memory
        segment must outlive the views, or the data must be copied out
        before the segment is released).
        """
        if len(buffers) != 2:
            raise CodecError(f"expected 2 buffers, got {len(buffers)}")
        return _decode(_parse_kv_header(header), *buffers)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<KeyValueSet n={len(self)} width={self.value_width} "
            f"scale={self.scale:g}>"
        )


class _KVHeader(NamedTuple):
    """One decoded part header, and the payload sizes it promises."""

    key_dtype: np.dtype
    value_dtype: np.dtype
    ndim: int
    n: int
    width: int
    scale: float
    uniform: bool

    @property
    def key_nbytes(self) -> int:
        return self.n * self.key_dtype.itemsize

    @property
    def value_nbytes(self) -> int:
        count = 1 if self.uniform else self.n * self.width
        return count * self.value_dtype.itemsize


def _parse_kv_header(header: bytes) -> _KVHeader:
    """Decode and validate one codec header."""
    header = bytes(header)
    if len(header) < _KV_HEADER.size:
        raise CodecError(f"KVSet header truncated at {len(header)} B")
    magic, version, ndim, flags, kd_len, vd_len, n, width, scale = (
        _KV_HEADER.unpack_from(header)
    )
    if magic != _KV_MAGIC:
        raise CodecError(f"bad KVSet header magic {magic!r}")
    if version != CODEC_VERSION:
        raise CodecError(
            f"KVSet codec v{version} not supported (this build speaks "
            f"v{CODEC_VERSION})"
        )
    if ndim not in (1, 2):
        raise CodecError(f"unsupported value rank {ndim}")
    if flags & ~_FLAG_UNIFORM:
        raise CodecError(f"unknown KVSet header flags {flags:#x}")
    uniform = bool(flags & _FLAG_UNIFORM)
    if uniform and (ndim != 1 or width != 1 or n == 0):
        raise CodecError(
            "a uniform value column is rank-1 and non-empty; header "
            f"declares rank {ndim}, width {width}, {n} pair(s)"
        )
    offset = _KV_HEADER.size
    if len(header) != offset + kd_len + vd_len:
        raise CodecError("KVSet header length disagrees with dtype fields")
    key_dtype = np.dtype(header[offset : offset + kd_len].decode("ascii"))
    value_dtype = np.dtype(
        header[offset + kd_len : offset + kd_len + vd_len].decode("ascii")
    )
    return _KVHeader(key_dtype, value_dtype, ndim, n, width, scale, uniform)


def _decode(h: _KVHeader, key_buf, value_buf) -> KeyValueSet:
    """Views over one part's two buffers, sized by its parsed header."""
    if memoryview(key_buf).nbytes != h.key_nbytes:
        raise CodecError(
            f"key buffer holds {memoryview(key_buf).nbytes} B, "
            f"header declares {h.key_nbytes}"
        )
    if memoryview(value_buf).nbytes != h.value_nbytes:
        raise CodecError(
            f"value buffer holds {memoryview(value_buf).nbytes} B, "
            f"header declares {h.value_nbytes}"
        )
    keys = np.frombuffer(key_buf, dtype=h.key_dtype, count=h.n)
    if h.uniform:
        # The key-buffer check above is what bounds ``n``: the
        # broadcast allocates nothing however large it is declared.
        values = np.broadcast_to(
            np.frombuffer(value_buf, dtype=h.value_dtype, count=1)[0], (h.n,)
        )
    else:
        values = np.frombuffer(value_buf, dtype=h.value_dtype, count=h.n * h.width)
        if h.ndim != 1:
            values = values.reshape(h.n, h.width)
    return KeyValueSet(keys=keys, values=values, scale=h.scale)


def pack_parts(
    parts: Sequence[KeyValueSet],
) -> Tuple[bytes, List[memoryview], int]:
    """Encode a batch (list of KVSets) as ``(manifest, chunks, nbytes)``.

    ``manifest`` is a small self-describing bytes blob (per-part codec
    headers, order-preserving); ``chunks`` are the raw buffers to lay
    end-to-end after it (shared-memory segment, wire stream, ...);
    ``nbytes`` is their total size.  Nothing is pickled.
    """
    records = [bytearray(_MANIFEST_HEADER.pack(_MANIFEST_MAGIC, CODEC_VERSION,
                                               len(parts)))]
    chunks: List[memoryview] = []
    nbytes = 0
    for part in parts:
        header, buffers = part.to_buffers()
        records.append(_U32.pack(len(header)))
        records.append(header)
        for buf in buffers:
            chunks.append(buf)
            nbytes += buf.nbytes
    return b"".join(bytes(r) for r in records), chunks, nbytes


def unpack_parts(manifest: bytes, data) -> List[KeyValueSet]:
    """Decode :func:`pack_parts` output; arrays are views into ``data``.

    ``data`` is any buffer holding the concatenated chunks.  The caller
    keeps it alive until the parts are consumed (concatenation by the
    reduce path copies them out).
    """
    manifest = bytes(manifest)
    if len(manifest) < _MANIFEST_HEADER.size:
        raise CodecError(f"batch manifest truncated at {len(manifest)} B")
    magic, version, n_parts = _MANIFEST_HEADER.unpack_from(manifest)
    if magic != _MANIFEST_MAGIC:
        raise CodecError(f"bad batch manifest magic {magic!r}")
    if version != CODEC_VERSION:
        raise CodecError(f"batch manifest codec v{version} not supported")
    view = memoryview(data).cast("B")
    parts: List[KeyValueSet] = []
    read = _MANIFEST_HEADER.size
    offset = 0
    for _ in range(n_parts):
        if read + _U32.size > len(manifest):
            raise CodecError("batch manifest ends inside a part record")
        (header_len,) = _U32.unpack_from(manifest, read)
        read += _U32.size
        header = manifest[read : read + header_len]
        read += header_len
        h = _parse_kv_header(header)
        end = offset + h.key_nbytes + h.value_nbytes
        if end > view.nbytes:
            raise CodecError(
                f"batch data holds {view.nbytes} B, manifest promises more"
            )
        values_at = offset + h.key_nbytes
        parts.append(_decode(h, view[offset:values_at], view[values_at:end]))
        offset = end
    if read != len(manifest):
        raise CodecError("trailing bytes after the last manifest record")
    return parts

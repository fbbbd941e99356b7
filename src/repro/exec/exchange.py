"""Shared-memory batch encoding, kept for one ledger probe only.

No backend uses this module: ``local`` and ``cluster`` both shuffle
over the :mod:`repro.fabric` wire.  It survives because the perf
ledger's ``exchange.shm_roundtrip_mb_s`` probe still imports
:func:`encode_batch`, :func:`decode_batch` and :func:`release_segment`;
it goes once a benchmark change retargets that probe at a
transport-neutral round-trip (ROADMAP item 5(b)).

A batch is packed with the binary KVSet codec (:mod:`repro.core.kvset`)
into one of two message shapes (the first element is the tag):

``("inline", manifest, data)``
    Payload bytes riding inside the message, for batches under
    :data:`SHM_MIN_BYTES` or when segment creation fails.
``("shm", name, nbytes, manifest)``
    Payload in a named ``multiprocessing.shared_memory`` segment; the
    decoder maps the arrays in place and the caller unlinks the
    segment with :func:`release_segment` once the data is copied out.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Any, List, Optional, Sequence, Tuple

from ..core.kvset import KeyValueSet, pack_parts, unpack_parts

__all__ = [
    "SHM_MIN_BYTES",
    "encode_batch",
    "decode_batch",
    "release_segment",
]

#: Batches smaller than this ride inline in the message: below
#: ~32 KiB the shm_open/mmap/unlink round-trip costs more than the copy.
SHM_MIN_BYTES = 32 * 1024


def encode_batch(parts: Sequence[KeyValueSet]) -> Tuple[Any, ...]:
    """Encode one shuffle batch as a message (see module docs)."""
    manifest, chunks, nbytes = pack_parts(parts)
    if nbytes >= SHM_MIN_BYTES:
        try:
            segment = shared_memory.SharedMemory(create=True, size=nbytes)
        except OSError:
            pass  # /dev/shm unavailable or full; fall through to inline
        else:
            offset = 0
            for chunk in chunks:
                segment.buf[offset : offset + chunk.nbytes] = chunk
                offset += chunk.nbytes
            name = segment.name
            segment.close()  # sender's mapping only; the segment persists
            return ("shm", name, nbytes, manifest)
    return ("inline", manifest, b"".join(bytes(c) for c in chunks))


def decode_batch(
    message: Tuple[Any, ...],
) -> Tuple[List[KeyValueSet], Optional[shared_memory.SharedMemory]]:
    """Decode a message into ``(parts, segment_or_None)``.

    For ``"shm"`` messages the parts are zero-copy views into the
    returned segment; the caller must keep it alive until the data is
    copied out, then :func:`release_segment` it.  Inline messages
    return ``None`` for the segment.
    """
    tag = message[0]
    if tag == "inline":
        _, manifest, data = message
        return unpack_parts(manifest, data), None
    if tag == "shm":
        _, name, nbytes, manifest = message
        segment = shared_memory.SharedMemory(name=name)
        try:
            # Slice to the payload size: POSIX rounds segments up to a
            # page, so the mapping may be larger than what was written.
            parts = unpack_parts(manifest, segment.buf[:nbytes])
        except BaseException:
            release_segment(segment)
            raise
        return parts, segment
    raise ValueError(f"unknown exchange message tag {tag!r}")


def release_segment(
    segment: shared_memory.SharedMemory, unlink: bool = True
) -> None:
    """Close (and by default unlink) one received segment, tolerantly.

    ``close`` raises :class:`BufferError` while zero-copy views are
    still alive; the mapping then lives until process exit, but the
    *name* is still unlinked so the segment cannot leak.
    """
    try:
        segment.close()
    except BufferError:
        pass
    if unlink:
        try:
            segment.unlink()
        except FileNotFoundError:
            pass  # already unlinked by a cleanup race; nothing to leak

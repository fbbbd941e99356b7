"""Streamed raw-buffer shuffle batches: the fabric's data plane.

Under protocol v1 a shuffle batch was one pickled ``MSG_BATCH`` frame,
which meant (a) every byte was pickled and copied on both ends and
(b) a batch bigger than ``max_frame_bytes`` simply could not be sent.
This module re-encodes the data plane on the binary KVSet codec
(:mod:`repro.core.kvset`) with *chunked streaming*:

* one ``MSG_BATCH`` header frame — a small raw struct carrying the
  source rank, flags, the total payload size, and the batch manifest
  (per-part codec headers, order-preserving, no pickle);
* zero or more ``MSG_BATCH_DATA`` frames, each holding one bounded
  chunk of the raw key/value bytes.  Chunks are sized to fit inside
  ``max_frame_bytes``, so a batch of any size streams through a small
  frame bound instead of raising :class:`FrameTooLarge`.

Every DATA frame carries its chunk raw, and its flags byte must be
zero; the header's only flag is the tag bit below.  Any other flag is
a :class:`ProtocolError`, raised before the frame's body is read.

Chunks **coalesce across part boundaries**: a batch of many small
parts (tiny per-key emission lists are common) packs into as few
``MSG_BATCH_DATA`` frames as the chunk size allows instead of one-plus
frames per buffer, cutting per-frame header and syscall overhead on
the many-small-parts path.  The receiver never sees part boundaries —
it reassembles by byte count against the manifest — so coalescing is
purely a sender-side batching decision.  Passing a ``counters`` dict
to :func:`send_batch` reports ``{"frames": ..., "bytes": ...}`` for
the send, which the endpoint surfaces as
``WorkerStats.shuffle_frames_sent``.
"""

from __future__ import annotations

import socket
import struct
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .wire import (
    DEFAULT_MAX_FRAME_BYTES,
    MSG_BATCH,
    MSG_BATCH_DATA,
    FrameTooLarge,
    ProtocolError,
    recv_raw_frame,
    send_raw_frame,
)
from ..core.kvset import CodecError, KeyValueSet, pack_parts, unpack_parts

__all__ = ["DEFAULT_CHUNK_BYTES", "send_batch", "recv_batch"]

#: Target raw-chunk size for streamed sends; the real chunk is the
#: smaller of this and what ``max_frame_bytes`` leaves room for.
DEFAULT_CHUNK_BYTES = 1 << 20

#: BATCH header frame payload: src(I) flags(B) total_nbytes(Q)
#: manifest_len(I) — manifest bytes follow; with flags bit 1 set, a
#: chunk-id tag block (count ``!I`` + count ``!q`` ids, one per part)
#: follows the manifest.
_BATCH_HEADER = struct.Struct("!IB3xQI")

#: BATCH_DATA frame payload: raw_len(Q) flags(B) — body follows; no
#: flag is defined, so flags must be 0.
_DATA_HEADER = struct.Struct("!QB3x")

#: batch header flag: a chunk-id provenance tag block trails the
#: manifest (one id per part; -1 = finish-time emission), letting
#: receivers deduplicate speculative re-execution output
_FLAG_TAGS = 2

_TAG_COUNT = struct.Struct("!I")


def _chunk_bytes(max_frame_bytes: int) -> int:
    """Largest raw chunk a DATA frame can carry under the bound."""
    room = max_frame_bytes - _DATA_HEADER.size
    if room < 1:
        raise FrameTooLarge(
            f"max_frame_bytes={max_frame_bytes} leaves no room for "
            "streamed batch chunks"
        )
    return min(DEFAULT_CHUNK_BYTES, room)


def _iter_chunks(
    buffers: Sequence[memoryview], chunk_bytes: int
) -> Iterator[memoryview]:
    """Yield bounded-size pieces of the batch payload, in order.

    Small buffers *coalesce*: consecutive buffers pack into one chunk
    until it reaches ``chunk_bytes``, so a batch of many tiny parts
    costs a handful of DATA frames instead of one-plus per buffer.  A
    chunk that happens to be a single contiguous span is yielded as a
    zero-copy view; only genuinely coalesced chunks pay a join copy
    (they are small by construction).
    """
    pending: List[memoryview] = []
    pending_nbytes = 0
    for buf in buffers:
        offset = 0
        while offset < buf.nbytes:
            take = min(chunk_bytes - pending_nbytes, buf.nbytes - offset)
            pending.append(buf[offset : offset + take])
            pending_nbytes += take
            offset += take
            if pending_nbytes == chunk_bytes:
                yield _join_views(pending)
                pending, pending_nbytes = [], 0
    if pending:
        yield _join_views(pending)


def _join_views(views: List[memoryview]) -> memoryview:
    if len(views) == 1:
        return views[0]
    # bytes.join consumes buffer objects directly: one copy, not two.
    return memoryview(b"".join(views))


def send_batch(
    sock: socket.socket,
    src: int,
    parts: Sequence[KeyValueSet],
    *,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    counters: Optional[Dict[str, int]] = None,
    chunk_ids: Optional[Sequence[int]] = None,
) -> int:
    """Stream one shuffle batch; returns payload bytes put on the wire.

    ``counters`` (optional dict) accumulates ``"frames"`` (BATCH +
    BATCH_DATA frames sent) and ``"bytes"`` for this call — the
    exchange-stats hook.  ``chunk_ids`` (optional, one per part) ships
    provenance tags in the header frame so receivers can drop
    speculative-duplicate map output (see
    :func:`repro.core.dataflow.merge_incoming`).
    """
    manifest, buffers, total_nbytes = pack_parts(parts)
    chunk_bytes = _chunk_bytes(max_frame_bytes)
    flags = 0
    tag_block = b""
    if chunk_ids is not None:
        if len(chunk_ids) != len(parts):
            raise ValueError(
                f"chunk_ids carries {len(chunk_ids)} tag(s) for "
                f"{len(parts)} part(s)"
            )
        flags = _FLAG_TAGS
        tag_block = _TAG_COUNT.pack(len(chunk_ids)) + struct.pack(
            f"!{len(chunk_ids)}q", *chunk_ids
        )
    header = _BATCH_HEADER.pack(src, flags, total_nbytes, len(manifest))
    sent = send_raw_frame(
        sock, MSG_BATCH, header + manifest + tag_block,
        max_frame_bytes=max_frame_bytes,
    )
    frames = 1
    for chunk in _iter_chunks(buffers, chunk_bytes):
        sent += send_raw_frame(
            sock,
            MSG_BATCH_DATA,
            _DATA_HEADER.pack(chunk.nbytes, 0) + bytes(chunk),
            max_frame_bytes=max_frame_bytes,
        )
        frames += 1
    if counters is not None:
        counters["frames"] = counters.get("frames", 0) + frames
        counters["bytes"] = counters.get("bytes", 0) + sent
    return sent


def recv_batch(
    sock: socket.socket,
    *,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> Tuple[int, List[KeyValueSet], Optional[List[int]]]:
    """Receive one streamed batch; returns ``(source_rank, parts,
    chunk_ids)`` — ``chunk_ids`` is ``None`` when the sender shipped no
    provenance tags.

    Reassembles the DATA chunks into one buffer and decodes the parts
    as zero-copy views into it (the reduce path's concatenation is the
    only copy the payload takes after the socket).
    """
    _, payload = recv_raw_frame(
        sock, max_frame_bytes=max_frame_bytes, expect=MSG_BATCH
    )
    if len(payload) < _BATCH_HEADER.size:
        raise ProtocolError(f"BATCH header truncated at {len(payload)} B")
    src, hdr_flags, total_nbytes, manifest_len = _BATCH_HEADER.unpack_from(payload)
    if hdr_flags & ~_FLAG_TAGS:
        raise ProtocolError(f"BATCH header sets unknown flags {hdr_flags:#x}")
    rest = payload[_BATCH_HEADER.size :]
    if len(rest) < manifest_len:
        raise ProtocolError(
            f"BATCH manifest holds {len(rest)} B, header declares "
            f"{manifest_len}"
        )
    manifest = rest[:manifest_len]
    chunk_ids: Optional[List[int]] = None
    trailer = rest[manifest_len:]
    if hdr_flags & _FLAG_TAGS:
        if len(trailer) < _TAG_COUNT.size:
            raise ProtocolError("BATCH tag block truncated")
        (n_tags,) = _TAG_COUNT.unpack_from(trailer)
        expected = _TAG_COUNT.size + 8 * n_tags
        if len(trailer) != expected:
            raise ProtocolError(
                f"BATCH tag block holds {len(trailer)} B, expected {expected}"
            )
        chunk_ids = list(
            struct.unpack_from(f"!{n_tags}q", trailer, _TAG_COUNT.size)
        )
    elif trailer:
        raise ProtocolError(
            f"BATCH frame carries {len(trailer)} trailing byte(s) with no "
            "tag flag set"
        )
    # Accumulate arriving chunks instead of pre-allocating
    # total_nbytes: the declared size is an unauthenticated 64-bit wire
    # field, and the wire layer's contract is that nothing is allocated
    # beyond what actually arrives (each frame is <= max_frame_bytes).
    # The codec keeps that promise for the manifest's pair counts too:
    # a part's declared n is checked against the key bytes delivered,
    # and a uniform value column decodes as a zero-stride view of its
    # one shipped element, whatever n says.
    received = []
    offset = 0
    while offset < total_nbytes:
        _, frame = recv_raw_frame(
            sock, max_frame_bytes=max_frame_bytes, expect=MSG_BATCH_DATA
        )
        if len(frame) < _DATA_HEADER.size:
            raise ProtocolError(f"BATCH_DATA header truncated at {len(frame)} B")
        raw_len, flags = _DATA_HEADER.unpack_from(frame)
        if flags:
            raise ProtocolError(f"BATCH_DATA frame sets unknown flags {flags:#x}")
        if raw_len == 0:
            # The sender never emits empty chunks; accepting them would
            # let a broken peer spin this loop without progress.
            raise ProtocolError("zero-length batch chunk")
        body = frame[_DATA_HEADER.size :]
        if len(body) != raw_len:
            raise ProtocolError(
                f"batch chunk carries {len(body)} B, declares {raw_len}"
            )
        if offset + raw_len > total_nbytes:
            raise ProtocolError("batch chunks overrun the declared payload size")
        received.append(body)
        offset += raw_len
    try:
        parts = unpack_parts(manifest, b"".join(received))
        if chunk_ids is not None and len(chunk_ids) != len(parts):
            raise ProtocolError(
                f"BATCH carries {len(chunk_ids)} tag(s) for "
                f"{len(parts)} part(s)"
            )
        return src, parts, chunk_ids
    except CodecError as exc:
        # A manifest that disagrees with the delivered payload is a
        # peer/protocol problem, not a local one: classify it so the
        # exchange loop treats the connection as corrupt.
        raise ProtocolError(f"undecodable batch payload: {exc}") from exc

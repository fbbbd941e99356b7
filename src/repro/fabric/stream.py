"""Streamed raw-buffer batches: the fabric's data plane.

Two kinds of payload ride here on the binary KVSet codec
(:mod:`repro.core.kvset`), never pickle: each shuffle batch a rank
sends a peer, and each rank's reduced output, which follows its
``RESULT`` frame on the control socket as a batch of 0 or 1 parts.  A
batch is *streamed*:

* one ``MSG_BATCH`` header frame — a small raw struct carrying the
  source rank, the run epoch, flags, the total payload size, and the
  batch manifest (per-part codec headers, order-preserving, no pickle);
* zero or more ``MSG_BATCH_DATA`` frames, each holding one bounded
  chunk of the raw key/value bytes.  Chunks are sized to fit inside
  ``max_frame_bytes``, so a batch of any size streams through a small
  frame bound instead of raising :class:`FrameTooLarge`.

Every payload byte is copied once per hop.  The sender hands the
part arrays' own memory to gathered ``sendmsg`` writes, one DATA
frame's head plus a list of array views at a time; the receiver reads
every DATA body with ``recv_into`` straight into one NumPy buffer and
decodes the parts as writable views into it.  That buffer grows one
frame at a time, after the frame's headers passed their checks, so a
peer that lies about the total size gets nothing allocated beyond
what it sent plus one bounded frame.

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

import numpy as np

from .wire import (
    DEFAULT_MAX_FRAME_BYTES,
    MSG_BATCH,
    MSG_BATCH_DATA,
    FrameTooLarge,
    ProtocolError,
    check_frame_type,
    recv_frame_header,
    recv_into_exact,
    recv_raw_frame,
    send_raw_frame,
)
from ..core.kvset import CodecError, KeyValueSet, pack_parts, unpack_parts

__all__ = ["DEFAULT_CHUNK_BYTES", "send_batch", "recv_batch"]

#: Target raw-chunk size for streamed sends; the real chunk is the
#: smaller of this and what ``max_frame_bytes`` leaves room for.
DEFAULT_CHUNK_BYTES = 1 << 20

#: BATCH header frame payload: src(I) epoch(I) flags(B) total_nbytes(Q)
#: manifest_len(I) — manifest bytes follow; with flags bit 1 set, a
#: chunk-id tag block (count ``!I`` + count ``!q`` ids, one per part)
#: follows the manifest.  ``epoch`` is the run the batch belongs to
#: (ASSIGN's ``epoch``): a rank's shuffle listener outlives a run, so
#: a receiver drops a batch stamped with any other run's epoch.
_BATCH_HEADER = struct.Struct("!IIB3xQI")

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
) -> Iterator[List[memoryview]]:
    """Yield the batch payload as bounded-size lists of views, in order.

    Small buffers *coalesce*: consecutive buffers pack into one chunk
    until it reaches ``chunk_bytes``, so a batch of many tiny parts
    costs a handful of DATA frames instead of one-plus per buffer.  A
    chunk is a list of slices of the part arrays — the frame's gathered
    write sends them as they are, so nothing is joined or copied.
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
                yield pending
                pending, pending_nbytes = [], 0
    if pending:
        yield pending


def send_batch(
    sock: socket.socket,
    src: int,
    parts: Sequence[KeyValueSet],
    *,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    counters: Optional[Dict[str, int]] = None,
    chunk_ids: Optional[Sequence[int]] = None,
    epoch: int = 0,
) -> int:
    """Stream one batch of run ``epoch``; returns payload bytes put on
    the wire.

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
    header = _BATCH_HEADER.pack(src, epoch, flags, total_nbytes, len(manifest))
    sent = send_raw_frame(
        sock, MSG_BATCH, [header, manifest, tag_block],
        max_frame_bytes=max_frame_bytes,
    )
    frames = 1
    for views in _iter_chunks(buffers, chunk_bytes):
        raw_len = sum(map(len, views))
        sent += send_raw_frame(
            sock, MSG_BATCH_DATA, [_DATA_HEADER.pack(raw_len, 0), *views],
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
    epoch: Optional[int] = None,
) -> Tuple[int, List[KeyValueSet], Optional[List[int]]]:
    """Receive one streamed batch; returns ``(source_rank, parts,
    chunk_ids)`` — ``chunk_ids`` is ``None`` when the sender shipped no
    provenance tags.

    With ``epoch`` set, a batch stamped with another run's epoch is a
    :class:`ProtocolError`, raised before its body is read.

    Every DATA body is read with ``recv_into`` straight into one NumPy
    buffer, and the parts decode as writable views into it: the
    payload's only copy between the socket and the reduce path's
    concatenation is the kernel's.
    """
    _, payload = recv_raw_frame(
        sock, max_frame_bytes=max_frame_bytes, expect=MSG_BATCH
    )
    if len(payload) < _BATCH_HEADER.size:
        raise ProtocolError(f"BATCH header truncated at {len(payload)} B")
    src, batch_epoch, hdr_flags, total_nbytes, manifest_len = (
        _BATCH_HEADER.unpack_from(payload)
    )
    if epoch is not None and batch_epoch != epoch:
        raise ProtocolError(
            f"BATCH from rank {src} belongs to run epoch {batch_epoch}, "
            f"not {epoch}"
        )
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
    # The buffer grows one frame at a time, and only once that frame's
    # headers passed every check: the declared total is an
    # unauthenticated 64-bit wire field, and the wire layer's contract
    # is that nothing is allocated beyond what actually arrives plus
    # one bounded frame.  The codec keeps that promise for the
    # manifest's pair counts too: a part's declared n is checked
    # against the key bytes delivered, and a uniform value column
    # decodes as a zero-stride view of its one shipped element,
    # whatever n says.
    data = np.empty(0, dtype=np.uint8)
    data_header = bytearray(_DATA_HEADER.size)
    offset = 0
    while offset < total_nbytes:
        msg_type, length = recv_frame_header(
            sock, max_frame_bytes=max_frame_bytes, at_boundary=False
        )
        check_frame_type(msg_type, MSG_BATCH_DATA)
        if length < _DATA_HEADER.size:
            raise ProtocolError(f"BATCH_DATA header truncated at {length} B")
        recv_into_exact(sock, data_header, at_boundary=False)
        raw_len, flags = _DATA_HEADER.unpack(data_header)
        if flags:
            raise ProtocolError(f"BATCH_DATA frame sets unknown flags {flags:#x}")
        if raw_len == 0:
            # The sender never emits empty chunks; accepting them would
            # let a broken peer spin this loop without progress.
            raise ProtocolError("zero-length batch chunk")
        if length - _DATA_HEADER.size != raw_len:
            raise ProtocolError(
                f"batch chunk carries {length - _DATA_HEADER.size} B, "
                f"declares {raw_len}"
            )
        if offset + raw_len > total_nbytes:
            raise ProtocolError("batch chunks overrun the declared payload size")
        # No view of ``data`` outlives a loop iteration, so the in-place
        # resize needs no reference check; read-only across it, NumPy
        # skips zero-filling the new tail that recv_into fills next.
        data.flags.writeable = False
        data.resize(offset + raw_len, refcheck=False)
        data.flags.writeable = True
        recv_into_exact(sock, data[offset:], at_boundary=False)
        offset += raw_len
    try:
        parts = unpack_parts(manifest, data)
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

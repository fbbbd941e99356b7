"""Raw-buffer batches: the fabric's data plane.

Two kinds of payload ride here on the binary KVSet codec
(:mod:`repro.core.kvset`), never pickle: each shuffle batch a rank
sends a peer, and each rank's reduced output, which follows its
``RESULT`` frame on the control socket as a batch of 0 or 1 parts.  A
batch is one envelope that gives the length, then the bytes — the
paper's MPI point-to-point message:

* one ``MSG_BATCH`` frame — a small raw struct carrying the source
  rank, the run epoch, flags, the total payload size, and the batch
  manifest (per-part codec headers, order-preserving, no pickle),
  then an optional chunk-id tag block;
* exactly ``total_nbytes`` raw key/value bytes straight after it, in
  no frame.  The wire's frame bound limits the frame, not these bytes,
  so a batch of any size passes it.

Every payload byte is copied once per hop.  The sender hands the frame
head, the header and the part arrays' own memory to one gathered
``sendmsg`` write; the receiver reads the raw bytes with ``recv_into``
straight into one NumPy buffer and decodes the parts as writable views
into it.  That buffer grows at most ``_RECV_STEP`` bytes ahead of what
arrived, so a peer that lies about the total size gets nothing
allocated beyond what it sent plus one step.

The header's only flag is the tag bit below.  Any other flag, or a
batch of another run's epoch, is a :class:`ProtocolError`, raised
before a payload byte is read.
"""

from __future__ import annotations

import socket
import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .wire import (
    HEADER,
    MSG_BATCH,
    ProtocolError,
    _frame_head,
    _send_buffers,
    recv_into_exact,
    recv_raw_frame,
)
from ..core.kvset import CodecError, KeyValueSet, pack_parts, unpack_parts

__all__ = ["send_batch", "recv_batch"]

#: BATCH frame payload: src(I) epoch(I) flags(B) total_nbytes(Q)
#: manifest_len(I) — manifest bytes follow; with flags bit 1 set, a
#: chunk-id tag block (count ``!I`` + count ``!q`` ids, one per part)
#: follows the manifest.  ``epoch`` is the run the batch belongs to
#: (ASSIGN's ``epoch``): a rank's shuffle listener outlives a run, so
#: a receiver drops a batch stamped with any other run's epoch.
_BATCH_HEADER = struct.Struct("!IIB3xQI")

#: batch header flag: a chunk-id provenance tag block trails the
#: manifest (one id per part; -1 = finish-time emission): which chunk
#: made each part
_FLAG_TAGS = 2

_TAG_COUNT = struct.Struct("!I")

#: Most bytes the receive buffer grows by ahead of what has arrived.
_RECV_STEP = 256 << 10


def send_batch(
    sock: socket.socket,
    src: int,
    parts: Sequence[KeyValueSet],
    *,
    chunk_ids: Optional[Sequence[int]] = None,
    epoch: int = 0,
) -> int:
    """Send one batch of run ``epoch``; returns the bytes put on the
    wire after the frame head (header, manifest, tags and payload).

    ``chunk_ids`` (optional, one per part) ships provenance tags in
    the frame: the chunk that produced each part (see
    :attr:`repro.core.dataflow.MapPhaseOutput.part_chunk_ids`).
    """
    manifest, buffers, total_nbytes = pack_parts(parts)
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
    length = len(header) + len(manifest) + len(tag_block)
    head = _frame_head(MSG_BATCH, length)
    _send_buffers(
        sock, [head, header, manifest, tag_block, *buffers],
        HEADER.size + length + total_nbytes,
    )
    return length + total_nbytes


def recv_batch(
    sock: socket.socket, *, epoch: Optional[int] = None
) -> Tuple[int, List[KeyValueSet], Optional[List[int]]]:
    """Receive one batch; returns ``(source_rank, parts, chunk_ids)`` —
    ``chunk_ids`` is ``None`` when the sender shipped no provenance
    tags.

    With ``epoch`` set, a batch stamped with another run's epoch is a
    :class:`ProtocolError`, raised before its payload is read.

    The payload is read with ``recv_into`` straight into one NumPy
    buffer, and the parts decode as writable views into it: the
    payload's only copy between the socket and the reduce path's
    concatenation is the kernel's.
    """
    _, payload = recv_raw_frame(sock, expect=MSG_BATCH)
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
    # The declared total is an unauthenticated 64-bit wire field, so
    # the buffer grows one bounded step at a time as bytes arrive.  The
    # codec keeps the same promise for the manifest's pair counts: a
    # part's declared n is checked against the key bytes delivered, and
    # a uniform value column decodes as a zero-stride view of its one
    # shipped element, whatever n says.
    data = np.empty(0, dtype=np.uint8)
    while data.nbytes < total_nbytes:
        offset = data.nbytes
        # No view of ``data`` outlives a loop iteration, so the in-place
        # resize needs no reference check; read-only across it, NumPy
        # skips zero-filling the new tail that recv_into fills next.
        data.flags.writeable = False
        data.resize(min(total_nbytes, offset + _RECV_STEP), refcheck=False)
        data.flags.writeable = True
        recv_into_exact(sock, data[offset:], at_boundary=False)
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

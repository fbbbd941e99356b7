"""The cluster fabric's wire layer, tested in isolation.

No executors, no dataflow: raw sockets (or socketpairs) exercising the
framing protocol — round-trips, bound enforcement, truncation and
disconnect detection, version negotiation failure — plus the
coordinator handshake against hand-rolled rank endpoints, including a
straggler that registers late and a rank that never shows up.
"""

import pickle
import socket
import struct
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.core.kvset import KeyValueSet
from repro.fabric import (
    ClusterTimeout,
    Coordinator,
    FabricError,
    FrameTooLarge,
    PeerDisconnected,
    ProtocolError,
    ProtocolVersionError,
    RankEndpoint,
    TruncatedFrame,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.fabric import recv_batch, recv_raw_frame, send_batch, send_raw_frame
from repro.fabric.wire import (
    HEADER,
    MAGIC,
    MSG_ASSIGN,
    MSG_BATCH,
    MSG_HELLO,
    MSG_RESULT,
    PROTOCOL_VERSION,
    AuthenticationError,
)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    yield a, b
    a.close()
    b.close()


# -- framing round-trips ----------------------------------------------------

@pytest.mark.parametrize(
    "payload",
    [
        None,
        {"rank": 3, "shuffle_address": ("127.0.0.1", 4242)},
        list(range(1000)),
        b"\x00" * 4096,
    ],
)
def test_frame_round_trip(pair, payload):
    a, b = pair
    sent = send_frame(a, MSG_HELLO, payload)
    msg_type, got = recv_frame(b)
    assert msg_type == MSG_HELLO
    assert got == payload
    assert sent > 0


def test_frame_round_trip_kvset_batch(pair):
    """The shuffle's actual cargo — KeyValueSets — survives the wire."""
    a, b = pair
    kv = KeyValueSet(
        keys=np.arange(512, dtype=np.uint32),
        values=np.linspace(0.0, 1.0, 512),
        scale=4.0,
    )
    send_frame(a, MSG_BATCH, {"src": 1, "parts": [kv, kv]})
    _, got = recv_frame(b, expect=MSG_BATCH)
    for part in got["parts"]:
        assert np.array_equal(part.keys, kv.keys)
        assert part.values.tobytes() == kv.values.tobytes()
        assert part.scale == kv.scale


def test_many_frames_on_one_stream(pair):
    """Length prefixes keep message boundaries exact back-to-back."""
    a, b = pair
    for i in range(50):
        send_frame(a, MSG_HELLO, {"seq": i})
    for i in range(50):
        _, got = recv_frame(b)
        assert got == {"seq": i}


def test_raw_frame_round_trip(pair):
    """The data plane's primitive: bytes in, the same bytes out."""
    a, b = pair
    payload = bytes(range(256)) * 16
    sent = send_raw_frame(a, MSG_BATCH, payload)
    msg_type, got = recv_raw_frame(b, expect=MSG_BATCH)
    assert msg_type == MSG_BATCH
    assert got == payload
    assert sent == len(payload)


# -- streamed batches -------------------------------------------------------

def _batch_parts(n_pairs=512, seed=0):
    rng = np.random.default_rng(seed)
    return [
        KeyValueSet(
            keys=np.arange(n_pairs, dtype=np.uint32),
            values=rng.standard_normal(n_pairs),
            scale=4.0,
        ),
        KeyValueSet(
            keys=rng.integers(0, 99, n_pairs // 2).astype(np.int64),
            values=rng.standard_normal((n_pairs // 2, 3)).astype(np.float32),
            scale=4.0,
        ),
    ]


def _assert_parts_identical(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.keys.dtype == e.keys.dtype
        assert np.array_equal(g.keys, e.keys)
        assert g.values.dtype == e.values.dtype
        assert g.values.shape == e.values.shape
        assert g.values.tobytes() == e.values.tobytes()
        assert g.scale == e.scale


def test_batch_stream_round_trip(pair):
    a, b = pair
    parts = _batch_parts()
    result = {}
    sender = threading.Thread(
        target=lambda: result.update(sent=send_batch(a, 3, parts)), daemon=True
    )
    sender.start()
    src, got, _tags = recv_batch(b)
    sender.join(timeout=10.0)
    assert src == 3
    _assert_parts_identical(got, parts)
    assert result["sent"] > 0


def test_empty_batch_streams(pair):
    a, b = pair
    send_batch(a, 1, [])
    src, got, _tags = recv_batch(b)
    assert src == 1
    assert got == []


def test_batch_larger_than_frame_bound_streams(pair):
    """The bound limits the BATCH frame, not the raw payload behind
    it: a batch far beyond max_frame_bytes arrives whole instead of
    raising FrameTooLarge."""
    a, b = pair
    bound = 8192
    parts = _batch_parts(n_pairs=20_000, seed=1)  # ~300 KiB payload
    payload_nbytes = sum(
        p.keys.nbytes + p.values.nbytes for p in parts
    )
    assert payload_nbytes > 10 * bound
    result = {}
    sender = threading.Thread(
        target=lambda: result.update(
            sent=send_batch(a, 0, parts, max_frame_bytes=bound)
        ),
        daemon=True,
    )
    sender.start()
    src, got, _tags = recv_batch(b, max_frame_bytes=bound)
    sender.join(timeout=10.0)
    assert src == 0
    _assert_parts_identical(got, parts)
    assert result["sent"] >= payload_nbytes


def test_batch_round_trips(pair):
    a, b = pair
    n = 50_000
    values = np.random.default_rng(2).standard_normal(n)
    parts = [KeyValueSet(keys=np.arange(n, dtype=np.uint32), values=values)]
    result = {}
    sender = threading.Thread(
        target=lambda: result.update(sent=send_batch(a, 2, parts)),
        daemon=True,
    )
    sender.start()
    src, got, _tags = recv_batch(b)
    sender.join(timeout=10.0)
    assert src == 2
    _assert_parts_identical(got, parts)


def test_zero_key_batch_streams(pair):
    """A batch whose parts hold zero pairs (a rank that binned nothing
    for a peer still posts its one batch) round-trips: the manifest
    carries the empty parts, no payload bytes follow."""
    a, b = pair
    parts = [
        KeyValueSet.empty(scale=2.0),
        KeyValueSet.empty(key_dtype=np.int64, value_dtype=np.float32,
                          value_width=3, scale=2.0),
    ]
    send_batch(a, 5, parts)
    src, got, _tags = recv_batch(b)
    assert src == 5
    _assert_parts_identical(got, parts)
    assert all(len(p) == 0 for p in got)


def test_batch_exactly_at_frame_bound_streams(pair):
    """The bound limits the BATCH frame (header, manifest, tag block):
    a frame exactly at the bound leaves and its payload, ten times the
    bound, streams behind it; one byte less of bound is FrameTooLarge
    before anything is sent — the boundary between 'fits' and
    'refused' is off-by-one territory."""
    from repro.core.kvset import pack_parts
    from repro.fabric.stream import _BATCH_HEADER

    parts = _batch_parts(n_pairs=4000, seed=3)
    chunk_ids = [1, 2]
    manifest, _buffers, nbytes = pack_parts(parts)
    bound = _BATCH_HEADER.size + len(manifest) + 4 + 8 * len(chunk_ids)
    assert nbytes > 10 * bound

    a, b = pair
    with pytest.raises(FrameTooLarge):
        send_batch(a, 1, parts, max_frame_bytes=bound - 1, chunk_ids=chunk_ids)
    result = {}
    sender = threading.Thread(
        target=lambda: result.update(
            sent=send_batch(a, 1, parts, max_frame_bytes=bound,
                            chunk_ids=chunk_ids)
        ),
        daemon=True,
    )
    sender.start()
    src, got, tags = recv_batch(b, max_frame_bytes=bound)
    sender.join(timeout=10.0)
    assert (src, tags) == (1, chunk_ids)
    _assert_parts_identical(got, parts)
    assert result["sent"] == bound + nbytes


def test_many_small_parts_coalesce_into_few_data_frames():
    """Hundreds of tiny parts leave as one BATCH frame with their bytes
    behind it, in one gathered sendmsg — not a frame, or a write, per
    part — and ``send_batch`` returns the bytes after the frame head."""
    parts = [
        KeyValueSet(
            keys=np.arange(4, dtype=np.uint32) + i,
            values=np.full(4, float(i)),
        )
        for i in range(200)
    ]
    wire = _TrickleSocket(room=1 << 20)
    sent = send_batch(wire, 2, parts)
    assert wire.calls == 1
    assert sent == len(wire.wire) - HEADER.size
    src, got, _tags = recv_batch(_StreamSocket(wire.wire))
    assert src == 2
    _assert_parts_identical(got, parts)


def test_batch_ships_every_chunk_raw(pair):
    """The wire byte count is the raw payload plus one frame: the
    header struct and the manifest, then the key and value buffers as
    they are."""
    from repro.fabric.stream import _BATCH_HEADER
    from repro.core.kvset import pack_parts

    rng = np.random.default_rng(7)
    parts = [
        KeyValueSet(
            keys=rng.integers(0, 1 << 32, 4, dtype=np.uint32),
            values=rng.standard_normal(4),
        )
    ]
    manifest, _buffers, payload_nbytes = pack_parts(parts)

    a, b = pair
    sent = send_batch(a, 3, parts)
    src, got, _tags = recv_batch(b)
    assert src == 3
    _assert_parts_identical(got, parts)
    assert sent == _BATCH_HEADER.size + len(manifest) + payload_nbytes


def _deflate_bomb(inflated_nbytes):
    """A zlib stream that inflates to ``inflated_nbytes`` zero bytes,
    built a MiB at a time (about 1/1000 of its inflated size)."""
    z = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    return b"".join(z.compress(zeros) for _ in range(inflated_nbytes >> 20)) + z.flush()


def test_flagged_data_frame_is_refused_before_its_body_is_read(pair):
    """A BATCH frame — the data plane's one frame — with a nonzero
    unknown flag is a protocol error, and the raw body behind it is
    never read: a 64 KiB deflate bomb declared as its 64 MiB inflated
    size allocates nothing near that."""
    from repro.fabric.stream import _BATCH_HEADER
    from repro.core.kvset import pack_parts

    inflated = 64 << 20
    bound = 1 << 20
    bomb = _deflate_bomb(inflated)
    assert len(bomb) < bound
    manifest, _buffers, _nbytes = pack_parts([KeyValueSet.empty()])
    a, b = pair
    send_raw_frame(
        a, MSG_BATCH, _BATCH_HEADER.pack(0, 0, 1, inflated, len(manifest)) + manifest,
        max_frame_bytes=bound,
    )
    sender = threading.Thread(target=a.sendall, args=(bomb,), daemon=True)
    sender.start()
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError, match="flags"):
            recv_batch(b, max_frame_bytes=bound)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    b.recv(len(bomb), socket.MSG_WAITALL)  # let the sender finish
    sender.join(timeout=10.0)
    assert peak < bound


def test_unknown_batch_header_flag_is_refused(pair):
    """The tag bit is the header's only flag; any other is refused
    before a payload byte is read."""
    from repro.fabric.stream import _BATCH_HEADER
    from repro.core.kvset import pack_parts

    manifest, _buffers, nbytes = pack_parts([KeyValueSet.empty()])
    a, b = pair
    for flag in (1, 4, 8, 0x80):
        send_raw_frame(
            a, MSG_BATCH, _BATCH_HEADER.pack(0, 0, flag, nbytes, len(manifest)) + manifest
        )
        with pytest.raises(ProtocolError, match="unknown flags"):
            recv_batch(b)


def test_unusably_small_frame_bound_is_loud(pair):
    a, _ = pair
    with pytest.raises(FrameTooLarge, match="refusing to send"):
        send_batch(a, 0, _batch_parts(), max_frame_bytes=8)


def test_zero_length_batch_chunk_is_protocol_error(pair):
    """A batch whose declared payload never comes — not one byte, then
    EOF — fails fast as a TruncatedFrame (a ProtocolError) instead of
    waiting out the socket timeout."""
    from repro.fabric.stream import _BATCH_HEADER

    a, b = pair
    send_raw_frame(a, MSG_BATCH, _BATCH_HEADER.pack(0, 0, 0, 64, 0))
    a.shutdown(socket.SHUT_WR)
    started = time.monotonic()
    with pytest.raises(TruncatedFrame, match="after 0 of 64"):
        recv_batch(b)
    assert time.monotonic() - started < 1.0


def test_manifest_payload_mismatch_is_protocol_error(pair):
    """A manifest that disagrees with the delivered bytes is classified
    as a protocol problem (the exchange loop drops such connections)."""
    a, b = pair
    parts = _batch_parts(n_pairs=64)
    result = {}
    sender = threading.Thread(
        target=lambda: result.update(sent=send_batch(a, 0, parts)), daemon=True
    )
    sender.start()

    # Proxy the frame through untouched but for the declared total,
    # halved, so the manifest promises more than arrives.
    from repro.fabric.stream import _BATCH_HEADER
    from repro.fabric.wire import recv_into_exact

    msg_type, payload = recv_raw_frame(b)
    src, epoch, flags, total, mlen = _BATCH_HEADER.unpack_from(payload)
    c, d = socket.socketpair()
    c.settimeout(5.0)
    d.settimeout(5.0)
    try:
        send_raw_frame(
            c,
            msg_type,
            _BATCH_HEADER.pack(src, epoch, flags, total // 2, mlen)
            + payload[_BATCH_HEADER.size :],
        )
        half = bytearray(total // 2)
        recv_into_exact(b, half, at_boundary=False)
        c.sendall(half)
        with pytest.raises(ProtocolError):
            recv_batch(d)
    finally:
        sender.join(timeout=10.0)
        c.close()
        d.close()


# -- the byte path: gathered sends, receive in place --------------------------

class _TrickleSocket:
    """A send side whose ``sendmsg`` takes at most ``room`` bytes
    (1,000 B) per call, recording what it took: every partial write
    must resume exactly where the last one stopped."""

    def __init__(self, room=1000):
        self.wire = bytearray()
        self.calls = 0
        self.room = room

    def sendmsg(self, buffers):
        self.calls += 1
        room = self.room
        for buf in buffers:
            piece = memoryview(buf).cast("B")[:room]
            self.wire += piece
            room -= piece.nbytes
            if not room:
                break
        return self.room - room


class _StreamSocket:
    """A receive side that plays back ``data`` through ``recv_into``,
    then EOF."""

    def __init__(self, data):
        self._data = memoryview(bytes(data))
        self._at = 0

    def recv_into(self, view):
        view = memoryview(view).cast("B")
        n = min(view.nbytes, len(self._data) - self._at)
        view[:n] = self._data[self._at : self._at + n]
        self._at += n
        return n


def _frame(msg_type, body):
    return HEADER.pack(MAGIC, PROTOCOL_VERSION, msg_type, len(body)) + body


def _reference_batch_stream(src, parts, chunk_ids):
    """The documented BATCH layout, built by hand from ``pack_parts``:
    one frame (struct, manifest, tag block), then the payload raw."""
    from repro.core.kvset import pack_parts
    from repro.fabric.stream import _BATCH_HEADER

    manifest, buffers, nbytes = pack_parts(parts)
    payload = b"".join(bytes(b) for b in buffers)
    tags = struct.pack(f"!I{len(chunk_ids)}q", len(chunk_ids), *chunk_ids)
    return _frame(
        MSG_BATCH, _BATCH_HEADER.pack(src, 0, 2, nbytes, len(manifest)) + manifest + tags
    ) + payload


def test_partial_sendmsg_writes_keep_the_batch_wire_format():
    """Gathered sends change no byte on the wire: through a socket
    that takes 1,000 B per sendmsg, a tagged batch far larger than the
    frame bound is the stream pack_parts plus the documented header
    describe, and it decodes back to its parts."""
    bound = 4096
    parts = _batch_parts(n_pairs=2000, seed=4) + [
        KeyValueSet(keys=np.arange(i + 1, dtype=np.uint32), values=np.ones(i + 1))
        for i in range(40)  # many small parts: one write gathers many views
    ]
    chunk_ids = list(range(len(parts)))
    trickle = _TrickleSocket()
    sent = send_batch(trickle, 6, parts, max_frame_bytes=bound, chunk_ids=chunk_ids)
    reference = _reference_batch_stream(6, parts, chunk_ids)
    assert len(reference) > 10 * bound
    assert bytes(trickle.wire) == reference
    assert trickle.calls >= len(reference) // 1000
    assert sent == len(reference) - HEADER.size
    src, got, tags = recv_batch(_StreamSocket(trickle.wire), max_frame_bytes=bound)
    assert (src, tags) == (6, chunk_ids)
    _assert_parts_identical(got, parts)


def test_lying_total_allocates_only_what_arrived():
    """A BATCH header declaring 2**40 payload bytes, 64 KiB of them,
    then EOF: the receive buffer grew at most one step past what
    arrived, and the cut is a TruncatedFrame."""
    from repro.core.kvset import pack_parts
    from repro.fabric.stream import _BATCH_HEADER

    manifest, _buffers, _nbytes = pack_parts([KeyValueSet.empty()])
    body = bytes(64 << 10)
    stream = _frame(
        MSG_BATCH, _BATCH_HEADER.pack(0, 0, 0, 1 << 40, len(manifest)) + manifest
    ) + body
    a, b = socket.socketpair()
    b.settimeout(5.0)
    sender = threading.Thread(
        target=lambda: (a.sendall(stream), a.close()), daemon=True
    )
    sender.start()
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedFrame):
            recv_batch(b)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sender.join(timeout=10.0)
        b.close()
    assert peak < 1 << 20


def _owner(array):
    """The object whose memory ``array`` views."""
    base = array
    while isinstance(base, np.ndarray) and base.base is not None:
        base = base.base
    return base.obj if isinstance(base, memoryview) else base


def test_received_parts_are_writable_views_into_one_buffer(pair):
    """recv_batch decodes in place: every part's keys and values view
    the one NumPy buffer the payload was received into, and they
    are writable, like the arrays a pickle used to hand back."""
    a, b = pair
    parts = _batch_parts(n_pairs=4000, seed=5)
    sender = threading.Thread(
        target=send_batch, args=(a, 1, parts), kwargs={"max_frame_bytes": 8192},
        daemon=True,
    )
    sender.start()
    _src, got, _tags = recv_batch(b, max_frame_bytes=8192)
    sender.join(timeout=10.0)
    _assert_parts_identical(got, parts)
    arrays = [arr for part in got for arr in (part.keys, part.values)]
    owners = {id(_owner(arr)) for arr in arrays}
    assert len(owners) == 1
    buffer = _owner(arrays[0])
    assert isinstance(buffer, np.ndarray)
    assert buffer.nbytes == sum(arr.nbytes for arr in arrays)
    assert all(arr.flags.writeable for arr in arrays)


#: mutated BATCH streams the fuzz below feeds to recv_batch
FUZZ_CASES = 2000

#: the run epoch the fuzzed streams are stamped with and checked against
FUZZ_EPOCH = 5


def _fuzz_shapes():
    """``(parts, chunk tags)`` of every shape the codec emits: tagged
    and untagged, empty, zero-pair, uniform, wide, large."""
    rng = np.random.default_rng(11)
    return [
        ([], None),
        ([KeyValueSet.empty(scale=2.0)], None),
        (_batch_parts(n_pairs=64, seed=1), [3, -1]),
        ([KeyValueSet(keys=np.arange(50, dtype=np.uint64),
                      values=np.broadcast_to(np.int32(1), (50,)))], [7]),
        ([KeyValueSet(keys=rng.integers(0, 99, 30).astype(np.int16),
                      values=rng.random((30, 3)) > 0.5)], None),
        (_batch_parts(n_pairs=300, seed=2), None),
    ]


def _fuzz_streams():
    """Valid BATCH streams of every shape in :func:`_fuzz_shapes`."""
    streams = []
    for parts, tags in _fuzz_shapes():
        trickle = _TrickleSocket()
        send_batch(trickle, 2, parts, max_frame_bytes=1024, chunk_ids=tags,
                   epoch=FUZZ_EPOCH)
        streams.append(bytes(trickle.wire))
    return streams


def test_mutated_batch_streams_raise_only_protocol_errors():
    """2,000 seeded mutations of valid BATCH streams (bit flips,
    truncations, 4-byte overwrites, the header's epoch field) through
    recv_batch: each decodes or raises ProtocolError — never TypeError,
    UnicodeDecodeError, a bare ValueError or anything else untyped."""
    rng = np.random.default_rng(2024)
    streams = _fuzz_streams()
    epoch_at = HEADER.size + 4  # after the BATCH header's source rank
    escaped = []
    for case in range(FUZZ_CASES):
        stream = bytearray(streams[case % len(streams)])
        kind = case % 4
        if kind == 0:
            for bit in rng.integers(0, 8 * len(stream), rng.integers(1, 4)):
                stream[bit // 8] ^= 1 << (bit % 8)
        elif kind == 1:
            del stream[rng.integers(1, len(stream)) :]
        elif kind == 2:
            at = int(rng.integers(0, len(stream) - 3))
            stream[at : at + 4] = rng.bytes(4)
        else:
            lies = [0, FUZZ_EPOCH - 1, FUZZ_EPOCH + 1, 0xFFFFFFFF,
                    int(rng.integers(0, 1 << 32))]
            stale = lies[int(rng.integers(0, len(lies)))]
            struct.pack_into("!I", stream, epoch_at, stale)
        try:
            recv_batch(_StreamSocket(stream), max_frame_bytes=1024,
                       epoch=FUZZ_EPOCH)
        except ProtocolError:
            continue
        except Exception as exc:  # noqa: BLE001 - the escapes under test
            escaped.append((case, kind, repr(exc)))
        if kind == 3 and stale != FUZZ_EPOCH:
            escaped.append((case, kind, f"epoch {stale} accepted"))
    assert escaped == [], escaped[:5]


class _LoggedStreamSocket(_StreamSocket):
    """A :class:`_StreamSocket` that records the largest buffer a read
    asked it to fill: what the receiver allocated for one frame."""

    largest = 0

    def recv_into(self, view):
        self.largest = max(self.largest, memoryview(view).nbytes)
        return super().recv_into(view)


def _length_lie(rng, width):
    """A length field's lie: an edge value or a random one, fitting in
    ``width`` bytes."""
    top = (1 << (8 * width)) - 1
    lies = [0, 1, 2, 255, top >> 1, top, int(rng.integers(0, top >> 1))]
    return lies[int(rng.integers(0, len(lies)))]


def _manifest_length_fields(manifest):
    """``(offset, struct)`` of every length field a manifest holds: each
    part record's header length, and each codec header's dtype lengths,
    pair count and width."""
    from repro.core.kvset import _KV_HEADER, _MANIFEST_HEADER, _U32

    fields = []
    read = _MANIFEST_HEADER.size
    while read + _U32.size <= len(manifest):
        fields.append((read, _U32))
        (header_len,) = _U32.unpack_from(manifest, read)
        head = read + _U32.size
        # magic(2) version ndim flags | kd_len vd_len | n width | scale
        fields += [(head + 5, struct.Struct("!H")), (head + 7, struct.Struct("!H")),
                   (head + 9, struct.Struct("!Q")), (head + 17, struct.Struct("!Q"))]
        assert header_len >= _KV_HEADER.size
        read = head + header_len
    return fields


def test_mutated_manifests_raise_only_codec_errors():
    """1,200 seeded mutations of valid ``pack_parts`` output, fed to
    ``unpack_parts`` directly: bit flips, truncations and length lies,
    in the manifest and in the data.  Each decodes or raises
    CodecError — never an untyped error."""
    from repro.core.kvset import CodecError, pack_parts, unpack_parts

    rng = np.random.default_rng(7)
    valid = []
    for parts, _tags in _fuzz_shapes():
        manifest, chunks, _nbytes = pack_parts(parts)
        valid.append((manifest, b"".join(bytes(c) for c in chunks)))
    escaped = []
    for case in range(1200):
        manifest, data = (bytearray(b) for b in valid[case % len(valid)])
        kind = case % 4
        target = manifest if (case // 4) % 2 == 0 else data
        if kind == 0 and target:
            for bit in rng.integers(0, 8 * len(target), rng.integers(1, 4)):
                target[bit // 8] ^= 1 << (bit % 8)
        elif kind == 1 and target:
            del target[rng.integers(0, len(target)) :]
        elif kind == 2:
            fields = _manifest_length_fields(manifest)
            if fields:
                at, field = fields[int(rng.integers(0, len(fields)))]
                field.pack_into(manifest, at, _length_lie(rng, field.size))
        else:  # the data is longer than the manifest declares
            data += rng.bytes(int(rng.integers(1, 64)))
        try:
            unpack_parts(bytes(manifest), bytes(data))
        except CodecError:
            pass
        except Exception as exc:  # noqa: BLE001 - the escapes under test
            escaped.append((case, kind, repr(exc)))
    assert escaped == [], escaped[:5]


def test_mutated_frame_headers_raise_only_fabric_errors():
    """1,200 seeded header mutations of valid control frames through
    ``recv_frame``: magic, version and type bytes, and the declared
    length (past the bound, inside it, and short of the payload).
    Each decodes or raises FabricError, and no read is sized past
    ``max_frame_bytes``."""
    bound = 4096
    payloads = [{"rank": 3, "pid": 41}, [1.5, None, "x" * 200], b"\0" * 900, ()]
    frames = [_frame(MSG_HELLO, pickle.dumps(p)) for p in payloads]
    rng = np.random.default_rng(5)
    escaped = []
    for case in range(1200):
        frame = bytearray(frames[case % len(frames)])
        kind = case % 4
        if kind == 0:  # magic
            frame[int(rng.integers(0, 4))] ^= int(rng.integers(1, 256))
        elif kind == 1:  # version
            frame[4] = int(rng.choice([v for v in range(256) if v != PROTOCOL_VERSION]))
        elif kind == 2:  # type, read with and without an expected type
            frame[5] = int(rng.integers(0, 256))
        else:  # length
            length = len(frame) - HEADER.size
            lies = [
                bound + 1, (1 << 64) - 1, int(rng.integers(bound + 1, 1 << 62)),
                int(rng.integers(0, length)), int(rng.integers(length + 1, bound + 1)),
            ]
            struct.pack_into("!Q", frame, 8, lies[int(rng.integers(0, len(lies)))])
        sock = _LoggedStreamSocket(frame)
        try:
            recv_frame(sock, max_frame_bytes=bound,
                       expect=MSG_HELLO if case % 8 < 4 else None)
        except FabricError:
            pass
        except Exception as exc:  # noqa: BLE001 - the escapes under test
            escaped.append((case, kind, repr(exc)))
        assert sock.largest <= bound, (case, kind, sock.largest)
    assert escaped == [], escaped[:5]


# -- bound enforcement ------------------------------------------------------

def test_oversized_send_is_refused(pair):
    a, _ = pair
    with pytest.raises(FrameTooLarge):
        send_frame(a, MSG_HELLO, b"x" * 1024, max_frame_bytes=512)


def test_oversized_declared_length_is_refused_before_allocation(pair):
    a, b = pair
    # A hand-forged header declaring a huge payload must be rejected
    # from the 16 header bytes alone.
    a.sendall(HEADER.pack(MAGIC, PROTOCOL_VERSION, MSG_HELLO, 1 << 40))
    with pytest.raises(FrameTooLarge):
        recv_frame(b, max_frame_bytes=1 << 20)


# -- truncation / disconnect ------------------------------------------------

def test_truncated_header_raises(pair):
    a, b = pair
    a.sendall(b"GPMR\x01")  # 5 of 16 header bytes
    a.close()
    with pytest.raises(TruncatedFrame):
        recv_frame(b)


def test_truncated_payload_raises(pair):
    a, b = pair
    a.sendall(HEADER.pack(MAGIC, PROTOCOL_VERSION, MSG_HELLO, 1000) + b"x" * 10)
    a.close()
    with pytest.raises(TruncatedFrame):
        recv_frame(b)


def test_clean_close_raises_peer_disconnected(pair):
    a, b = pair
    a.close()
    with pytest.raises(PeerDisconnected):
        recv_frame(b)


# -- protocol violations ----------------------------------------------------

def test_protocol_version_mismatch(pair):
    a, b = pair
    future = struct.Struct("!4sBB2xQ").pack(MAGIC, PROTOCOL_VERSION + 1, MSG_HELLO, 0)
    a.sendall(future)
    with pytest.raises(ProtocolVersionError, match="protocol"):
        recv_frame(b)


def test_bad_magic(pair):
    a, b = pair
    a.sendall(HEADER.pack(b"HTTP", PROTOCOL_VERSION, MSG_HELLO, 0))
    with pytest.raises(ProtocolError, match="magic"):
        recv_frame(b)


def test_unexpected_message_type(pair):
    a, b = pair
    send_frame(a, MSG_BATCH, {"src": 0, "parts": []})
    with pytest.raises(ProtocolError, match="expected HELLO"):
        recv_frame(b, expect=MSG_HELLO)


def test_parse_address():
    assert parse_address("10.0.0.7:5555") == ("10.0.0.7", 5555)
    assert parse_address("host.example:1") == ("host.example", 1)
    with pytest.raises(ValueError):
        parse_address("5555")
    with pytest.raises(ValueError):
        parse_address(":5555")


# -- coordinator handshake --------------------------------------------------

def _register(rank, address, delay=0.0, timeout=10.0):
    """A rank's whole handshake: HELLO, then wait for ASSIGN."""
    if delay:
        time.sleep(delay)
    ep = RankEndpoint(rank, address, timeout_seconds=timeout)
    ep.connect()
    return ep


def _register_expecting_rejection(sink, rank, address):
    """Thread target for ranks the coordinator will hang up on before
    their ASSIGN."""
    try:
        sink.append(_register(rank, address))
    except PeerDisconnected:
        pass  # the coordinator hung up on us, as the test expects


def _hello(address, payload):
    """Dial ``address`` and send one HELLO frame carrying ``payload``."""
    sock = socket.create_connection(address, timeout=5.0)
    send_frame(sock, MSG_HELLO, payload)
    return sock


def _hung_up(sock):
    """True once the coordinator has closed ``sock`` without a word."""
    try:
        return sock.recv(1) == b""
    finally:
        sock.close()


def test_handshake_with_straggler_rank():
    """Registration order is free: a late rank still completes the
    handshake, and every rank's ASSIGN carries the same cluster size
    and peer directory."""
    with Coordinator(3, timeout_seconds=10.0) as coord:
        endpoints = []
        threads = [
            threading.Thread(
                # Rank 1 dials in well after 2 and 0.
                target=lambda r=r, d=d: endpoints.append(
                    _register(r, coord.address, delay=d)
                ),
                daemon=True,
            )
            for r, d in ((2, 0.0), (0, 0.05), (1, 0.6))
        ]
        for t in threads:
            t.start()
        coord.wait_for_ranks()
        coord.broadcast_assignments("job")
        for t in threads:
            t.join(timeout=10.0)
        try:
            assert len(endpoints) == 3
            assert all(ep.n_workers == 3 for ep in endpoints)
            assert all(ep.peers == coord.shuffle_peers for ep in endpoints)
            assert set(coord.shuffle_peers) == {0, 1, 2}
            # Each advertised shuffle listener is really dialable.
            for host, port in coord.shuffle_peers.values():
                socket.create_connection((host, port), timeout=5.0).close()
        finally:
            for ep in endpoints:
                ep.close()


def test_registration_timeout_names_missing_ranks():
    eps = []
    with Coordinator(2, timeout_seconds=0.5) as coord:
        t = threading.Thread(
            target=_register_expecting_rejection,
            args=(eps, 0, coord.address),
            daemon=True,
        )
        t.start()
        with pytest.raises(ClusterTimeout, match=r"rank\(s\) \[1\]"):
            coord.wait_for_ranks()
    # Closing the coordinator hangs up on rank 0's ASSIGN wait.
    t.join(timeout=5.0)
    assert not t.is_alive() and eps == []


def test_out_of_range_rank_is_rejected():
    with Coordinator(2, timeout_seconds=5.0) as coord:
        t = threading.Thread(
            target=_register_expecting_rejection,
            args=([], 7, coord.address),
            daemon=True,
        )
        t.start()
        with pytest.raises(FabricError, match="out-of-range rank 7"):
            coord.wait_for_ranks()
        t.join(timeout=5.0)


def test_stray_connection_does_not_abort_registration():
    """A port scanner / health check that connects and closes (or
    sends garbage) is dropped; the real ranks still register."""
    with Coordinator(2, timeout_seconds=10.0) as coord:
        def _noise_then_ranks():
            # Stray 1: connect and close immediately.
            socket.create_connection(coord.address, timeout=5.0).close()
            # Stray 2: send non-fabric bytes, then close.
            s = socket.create_connection(coord.address, timeout=5.0)
            s.sendall(b"GET / HTTP/1.1\r\n\r\n")
            s.close()

        eps = []
        threads = [threading.Thread(target=_noise_then_ranks, daemon=True)] + [
            threading.Thread(
                target=lambda r=r: eps.append(
                    _register(r, coord.address, delay=0.2)
                ),
                daemon=True,
            )
            for r in (0, 1)
        ]
        for t in threads:
            t.start()
        coord.wait_for_ranks()
        coord.broadcast_assignments("job")
        for t in threads:
            t.join(timeout=10.0)
        try:
            assert set(coord.shuffle_peers) == {0, 1}
        finally:
            for ep in eps:
                ep.close()


MALFORMED_HELLOS = [
    {"not_rank": 1},
    ["junk"],
    {"rank": "0", "shuffle_address": ("127.0.0.1", 1)},
    {"rank": 0, "shuffle_address": ("127.0.0.1",)},
    {"rank": 0},
]


@pytest.mark.parametrize("payload", MALFORMED_HELLOS)
def test_malformed_hello_is_dropped_during_registration(payload):
    """A HELLO frame whose payload is not ``{"rank": int,
    "shuffle_address": (host, port)}`` is dropped like any stray; the
    real rank still registers."""
    with Coordinator(1, timeout_seconds=10.0) as coord:
        stray = _hello(coord.address, payload)
        eps = []
        t = threading.Thread(
            target=lambda: eps.append(_register(0, coord.address, delay=0.1)),
            daemon=True,
        )
        t.start()
        coord.wait_for_ranks()
        assert _hung_up(stray)
        coord.broadcast_assignments("job")
        t.join(timeout=10.0)
        try:
            assert set(coord.shuffle_peers) == {0}
            assert [ep.n_workers for ep in eps] == [1]
        finally:
            for ep in eps:
                ep.close()


def test_stray_connection_does_not_abort_shuffle():
    """The data-plane listener tolerates scanners too: a rank's
    exchange drops garbage connections and still collects every real
    batch."""
    a = RankEndpoint(0, ("127.0.0.1", 1), timeout_seconds=10.0)
    b = RankEndpoint(1, ("127.0.0.1", 1), timeout_seconds=10.0)
    a.n_workers = b.n_workers = 2
    a.peers = b.peers = {0: a.shuffle_address, 1: b.shuffle_address}

    def _part(tag):
        return KeyValueSet(
            keys=np.full(8, tag, dtype=np.uint32), values=np.arange(8.0)
        )

    parts_for = [[_part(0)], [_part(1)]]
    try:
        # Noise at rank 0's shuffle port before/while batches fly.
        s = socket.create_connection(a.shuffle_address, timeout=5.0)
        s.sendall(b"\x00" * 32)
        s.close()
        socket.create_connection(a.shuffle_address, timeout=5.0).close()

        # Neither endpoint has a map phase to finish: ACKs may flow.
        for ep in (a, b):
            ep._posted_event.set()
        a.send(1, parts_for[1])
        b.send(0, parts_for[0])
        results = {}
        tb = threading.Thread(
            target=lambda: results.update(b=b.recv_all()), daemon=True
        )
        tb.start()
        results["a"] = a.recv_all()
        tb.join(timeout=10.0)
        assert [src for src, _p, _t in results["a"]] == [1]
        assert [src for src, _p, _t in results["b"]] == [0]
        for batches in results.values():
            for src, parts, _tags in batches:
                assert len(parts) == 1
                # Rank r's inbox got the parts_for[r] payload.
                assert parts[0].values.tobytes() == np.arange(8.0).tobytes()
    finally:
        a.close()
        b.close()


# -- every fabric connection sends small frames at once -----------------------

def _nodelay(sock):
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def test_every_connection_of_a_live_run_disables_nagle(monkeypatch):
    """With Nagle on, a small frame written behind one the peer has not
    yet acknowledged waits out the peer's delayed ACK (~40 ms).  A
    two-rank run in this process checks both ends of every control
    connection and of every shuffle connection it opened."""
    from repro.apps.sparse_int_occurrence import sio_dataset, sio_job
    from repro.core.scheduler import resolve_chunks
    from repro.core.scheduler import ChunkService
    from repro.fabric import endpoint as endpoint_mod

    seen = {"shuffle connect": [], "shuffle accept": []}

    def watch(kind, real):
        def wrapped(sock, *args, **kwargs):
            seen[kind].append(_nodelay(sock))
            return real(sock, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(endpoint_mod, "send_batch",
                        watch("shuffle connect", send_batch))
    monkeypatch.setattr(endpoint_mod, "recv_batch",
                        watch("shuffle accept", recv_batch))
    ds = sio_dataset(8_000, chunk_elements=2_000, key_space=1 << 10, seed=3)
    service = ChunkService(resolve_chunks(ds, None), 2)

    with Coordinator(2, timeout_seconds=10.0) as coord:
        eps = [RankEndpoint(r, coord.address, timeout_seconds=10.0)
               for r in range(2)]
        threads = [threading.Thread(target=ep.serve, daemon=True) for ep in eps]
        try:
            for t in threads:
                t.start()
            coord.wait_for_ranks()
            coord.broadcast_assignments(sio_job(ds.key_space))
            assert len(coord.collect_results(chunk_service=service)) == 2
            assert [_nodelay(c) for c in coord._conns.values()] == [True, True]
            assert [_nodelay(ep._control) for ep in eps] == [True, True]
            for kind, flags in seen.items():
                assert flags and all(flags), (kind, flags)
        finally:
            # The ranks wait for their next ASSIGN until the hang-up.
            coord.close()
            for t in threads:
                t.join(timeout=10.0)
            for ep in eps:
                ep.close()


# -- the exchange hands over, it does not poll --------------------------------

#: what "promptly" means below; the poll ticks these tests keep out of
#: the exchange were 200 ms (withheld ACKs) and 50 ms (recv_all)
PROMPT_SECONDS = 0.05


@pytest.fixture
def exchange_ranks():
    """Three unregistered endpoints wired to each other's shuffle
    listeners; rank 0 is the receiver under test, with a socketpair
    standing in for its control connection so it can ``mark_posted()``."""
    eps = [
        RankEndpoint(r, ("127.0.0.1", 1), timeout_seconds=5.0) for r in range(3)
    ]
    peers = {ep.rank: ep.shuffle_address for ep in eps}
    for ep in eps:
        ep.n_workers = 3
        ep.peers = peers
    eps[0]._control, coordinator_side = socket.socketpair()
    yield eps
    coordinator_side.close()
    for ep in eps:
        ep.close()


def _small_batch():
    return [KeyValueSet(keys=np.arange(8, dtype=np.uint32), values=np.arange(8.0))]


def _timed_send(sender, dest, done_at):
    """Confirmed send on a thread; records when the ACK came back."""
    def _run():
        sender._send_batch(dest, _small_batch())
        done_at.append(time.monotonic())

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    return thread


def test_early_batch_is_acked_by_mark_posted_not_before(exchange_ranks):
    """ACK-implies-posted, at no latency: a batch that lands while the
    receiver is still mapping stays unconfirmed however long that
    takes, and mark_posted() itself confirms it."""
    receiver, sender, _absent = exchange_ranks
    receiver.start_inbox()
    acked_at = []
    sending = _timed_send(sender, 0, acked_at)
    with receiver._inbox_cond:
        assert receiver._inbox_cond.wait_for(
            lambda: 1 in receiver._inbox_have, timeout=5.0
        )
    time.sleep(0.3)  # well past any accept tick
    assert sending.is_alive() and not acked_at, "ACKed before MAPS_DONE"
    posted_at = time.monotonic()
    receiver.mark_posted()
    sending.join(timeout=5.0)
    assert not sending.is_alive()
    assert acked_at[0] - posted_at < PROMPT_SECONDS


def test_recv_all_returns_as_the_last_batch_lands(exchange_ranks):
    receiver, first, last = exchange_ranks
    receiver._posted_event.set()  # no map phase to finish: ACKs may flow
    returned = []

    def _receive():
        batches = receiver.recv_all()
        returned.append((time.monotonic(), batches))

    receiving = threading.Thread(target=_receive, daemon=True)
    receiving.start()
    first._send_batch(0, _small_batch())
    time.sleep(0.13)  # off every multiple of the old poll interval
    assert receiving.is_alive(), "recv_all returned with a peer missing"
    last._send_batch(0, _small_batch())  # returns once rank 0 ACKed it
    landed_at = time.monotonic()
    receiving.join(timeout=5.0)
    assert not receiving.is_alive()
    returned_at, batches = returned[0]
    assert returned_at - landed_at < PROMPT_SECONDS
    assert [src for src, _parts, _tags in batches] == [1, 2]


def test_recv_all_returns_only_once_every_ack_is_out(exchange_ranks):
    """A rank may reduce and exit the moment recv_all returns; an ACK
    still queued on the inbox thread would die with the process and
    leave its sender resending to a closed port until the deadline."""
    receiver, first, last = exchange_ranks
    acked = []

    def _slow_ack(conn, _ack=receiver._ack):
        time.sleep(0.1)
        _ack(conn)
        acked.append(conn)

    receiver._ack = _slow_ack
    receiver._posted_event.set()
    receiver.start_inbox()
    sends = [_timed_send(sender, 0, []) for sender in (first, last)]
    receiver.recv_all()
    assert len(acked) == 2
    for sending in sends:
        sending.join(timeout=5.0)
        assert not sending.is_alive()


def test_batch_from_another_run_is_dropped_uncounted(exchange_ranks):
    """A shuffle listener outlives a run, so a late batch of the last
    run could land in this one: a well-formed BATCH stamped with the
    previous epoch is dropped unACKed and uncounted, and the real
    batch from the same source still completes the exchange."""
    receiver, first, last = exchange_ranks
    for ep in exchange_ranks:
        ep.epoch = 2
    receiver._posted_event.set()
    receiver.start_inbox()
    stale = [KeyValueSet(keys=np.arange(3, dtype=np.uint32), values=np.full(3, 7.0))]
    with socket.create_connection(receiver.shuffle_address, timeout=5.0) as sock:
        sock.settimeout(5.0)
        send_batch(sock, first.rank, stale, epoch=1)
        try:
            reply = sock.recv(1)
        except ConnectionResetError:  # closed with the body unread
            reply = b""
        assert reply == b"", "a batch of another run was ACKed"
    with receiver._inbox_cond:
        assert receiver._inbox_have == set() and not receiver._inbox_batches
    first._send_batch(0, _small_batch())
    last._send_batch(0, _small_batch())
    batches = receiver.recv_all()
    assert [src for src, _parts, _tags in batches] == [1, 2]
    for _src, parts, _tags in batches:
        _assert_parts_identical(parts, _small_batch())


def test_recv_all_deadline_names_the_sources_it_has(exchange_ranks):
    receiver, sender, _absent = exchange_ranks
    receiver.timeout_seconds = 0.5
    receiver._posted_event.set()
    receiver.start_inbox()
    sender._send_batch(0, _small_batch())
    t0 = time.monotonic()
    with pytest.raises(FabricError, match=r"timed out.*only from \[0, 1\]"):
        receiver.recv_all()
    assert 0.5 <= time.monotonic() - t0 < 0.5 + 10 * PROMPT_SECONDS


def test_error_frame_before_first_pull_surfaces_rank_traceback():
    """A rank that fails after its ASSIGN but before its first
    CHUNK_REQ (a bad job unpickle, a remote import error) reports its
    traceback, and result collection raises it as RankFailure."""
    from repro.fabric import RankFailure

    with Coordinator(1, timeout_seconds=10.0) as coord:
        eps = []
        t = threading.Thread(
            target=lambda: eps.append(_register(0, coord.address)), daemon=True
        )
        t.start()
        coord.wait_for_ranks()
        coord.broadcast_assignments("job")
        t.join(timeout=10.0)
        try:
            eps[0].report(None, None, "Traceback: boom before first pull")
            with pytest.raises(RankFailure, match="boom before first pull"):
                coord.collect_results()
        finally:
            for ep in eps:
                ep.close()


def test_broadcast_to_dead_rank_names_the_rank():
    """A rank that registers and dies before ASSIGN arrives surfaces
    as RankFailure(rank), not a bare disconnect from a send loop."""
    from repro.fabric import RankFailure

    with Coordinator(1, timeout_seconds=10.0) as coord:
        rank0 = _hello(coord.address, {"rank": 0,
                                       "shuffle_address": ("127.0.0.1", 1)})
        coord.wait_for_ranks()
        rank0.close()  # rank dies right after registering
        with pytest.raises(RankFailure, match="rank 0"):
            # One ASSIGN payload cannot overrun the socket buffers, so
            # grow it until the dead peer's RST is felt mid-send.
            for _ in range(50):
                coord.broadcast_assignments(b"x" * (1 << 20))
                time.sleep(0.02)


def test_duplicate_rank_is_rejected():
    eps = []
    threads = []
    with Coordinator(2, timeout_seconds=5.0) as coord:
        threads = [
            threading.Thread(
                target=_register_expecting_rejection,
                args=(eps, 0, coord.address),
                daemon=True,
            )
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        with pytest.raises(FabricError, match="duplicate registration"):
            coord.wait_for_ranks()
    # Closing the coordinator hangs up on the admitted copy's ASSIGN
    # wait too: neither copy ever gets one.
    for t in threads:
        t.join(timeout=5.0)
    assert eps == []


# -- the first frame a rank hears is ASSIGN, and mid-run admission -----------

def _rank_hello(rank):
    return {"rank": rank, "shuffle_address": ("127.0.0.1", 1)}


def _result(sock, rank):
    """A rank's whole report: the RESULT frame, then its output batch
    (empty: this fake rank produced nothing)."""
    send_frame(sock, MSG_RESULT, {"rank": rank, "stats": None})
    send_batch(sock, rank, [])


def test_first_frame_to_a_rank_is_assign_then_a_retired_rank_is_readmitted():
    """No WELCOME and no barrier: the coordinator's first frame to a
    first incarnation is its ASSIGN.  Mid-run, a plain HELLO for a
    live rank is refused, and one for the rank recovery just retired
    is admitted as its replacement and answered at once with an ASSIGN
    that does not re-arm the predecessor's scripted kill."""
    from repro.apps.sparse_int_occurrence import sio_dataset, sio_job
    from repro.core.faults import FaultPlan
    from repro.core.scheduler import resolve_chunks
    from repro.core.scheduler import ChunkService

    ds = sio_dataset(4_000, chunk_elements=2_000, key_space=1 << 8, seed=3)
    service = ChunkService(resolve_chunks(ds, None), 2)
    plan = FaultPlan(kill_rank_at_chunk={0: 1})
    seen = {}

    with Coordinator(2, timeout_seconds=10.0) as coord:
        ranks = [_hello(coord.address, _rank_hello(r)) for r in range(2)]
        coord.wait_for_ranks()
        coord.broadcast_assignments(sio_job(ds.key_space), fault_plan=plan)
        for r, sock in enumerate(ranks):
            msg_type, assign = recv_frame(sock)
            assert msg_type == MSG_ASSIGN
            assert assign["max_frame_bytes"] == coord.max_frame_bytes
            assert "rejoin" not in assign
            seen[r] = assign["fault"]
        assert seen == {0: {"kill_at_chunk": 1}, 1: {}}

        def _replace():
            seen["live refused"] = _hung_up(
                _hello(coord.address, _rank_hello(1))
            )
            replacement = _hello(coord.address, _rank_hello(0))
            seen["replacement"] = recv_frame(replacement)
            _result(replacement, 0)
            _result(ranks[1], 1)
            ranks.append(replacement)

        helper = threading.Thread(target=_replace, daemon=True)
        respawned = []

        def respawner(rank, port):
            respawned.append((rank, port))
            helper.start()
            return True

        ranks[0].close()  # rank 0 dies before posting: recoverable
        collected = coord.collect_results(
            chunk_service=service, respawner=respawner
        )
        helper.join(timeout=10.0)
        for sock in ranks[1:]:
            sock.close()

    assert respawned == [(0, 1)]
    assert seen["live refused"]
    msg_type, assign = seen["replacement"]
    assert msg_type == MSG_ASSIGN
    assert assign["fault"] == {} and "rejoin" not in assign
    assert [rank for rank, _out, _stats in collected] == [0, 1]


@pytest.mark.parametrize("payload", MALFORMED_HELLOS)
def test_malformed_hello_is_dropped_during_result_collection(payload):
    """Mid-run, a malformed HELLO is dropped and the run goes on — it
    no longer raises out of collect_results."""
    with Coordinator(1, timeout_seconds=10.0) as coord:
        rank0 = _hello(coord.address, _rank_hello(0))
        coord.wait_for_ranks()
        coord.broadcast_assignments("job")
        assert recv_frame(rank0)[0] == MSG_ASSIGN

        def _stray_then_result():
            # The result goes out only once the stray was dealt with.
            if _hung_up(_hello(coord.address, payload)):
                _result(rank0, 0)

        t = threading.Thread(target=_stray_then_result, daemon=True)
        t.start()
        try:
            assert [r for r, _o, _s in coord.collect_results()] == [0]
        finally:
            t.join(timeout=10.0)
            rank0.close()


@pytest.mark.parametrize(
    "cut", ["before the batch", "mid payload", "two parts"]
)
def test_rank_dying_partway_through_its_result_is_a_rank_failure(cut):
    """A rank whose control socket closes after its RESULT frame but
    before its output batch is whole — or whose batch holds more than
    one part — surfaces from collect_results as RankFailure naming that
    rank (the executor's WorkerFailure), never as a raw TruncatedFrame
    or ProtocolError."""
    from repro.core.kvset import pack_parts
    from repro.fabric import RankFailure
    from repro.fabric.stream import _BATCH_HEADER

    output = KeyValueSet(keys=np.arange(1000, dtype=np.uint32), values=np.ones(1000))
    with Coordinator(2, timeout_seconds=10.0) as coord:
        ranks = [_hello(coord.address, _rank_hello(r)) for r in range(2)]
        coord.wait_for_ranks()
        coord.broadcast_assignments("job")
        for sock in ranks:
            assert recv_frame(sock)[0] == MSG_ASSIGN
        _result(ranks[0], 0)
        send_frame(ranks[1], MSG_RESULT, {"rank": 1, "stats": None})
        if cut == "mid payload":
            manifest, _buffers, nbytes = pack_parts([output])
            send_raw_frame(
                ranks[1], MSG_BATCH,
                _BATCH_HEADER.pack(1, 0, 0, nbytes, len(manifest)) + manifest,
            )
            ranks[1].sendall(bytes(100))
        elif cut == "two parts":
            send_batch(ranks[1], 1, [output, output])
        ranks[1].close()
        try:
            with pytest.raises(RankFailure) as failure:
                coord.collect_results()
        finally:
            ranks[0].close()
    assert failure.value.rank == 1
    assert "output" in failure.value.detail


# -- authenticated registration (protocol v5) --------------------------------

FABRIC_KEY = b"fabric-shared-key"


def test_authenticated_registration_round_trip():
    """Keyed coordinator + keyed ranks: the handshake completes and the
    cluster forms exactly as in the keyless case."""
    with Coordinator(2, timeout_seconds=10.0, auth_key=FABRIC_KEY) as coord:
        eps = []

        def _keyed(rank):
            ep = RankEndpoint(rank, coord.address, timeout_seconds=10.0,
                              auth_key=FABRIC_KEY)
            ep.connect()
            eps.append(ep)

        threads = [threading.Thread(target=_keyed, args=(r,), daemon=True)
                   for r in (0, 1)]
        for t in threads:
            t.start()
        try:
            coord.wait_for_ranks()
            coord.broadcast_assignments("job")
            for t in threads:
                t.join(timeout=10.0)
            assert len(eps) == 2
            assert all(ep.n_workers == 2 for ep in eps)
        finally:
            for ep in eps:
                ep.close()


def test_wrong_key_rank_is_dropped_not_fatal():
    """A rank with the wrong key is refused like a port scanner — the
    coordinator keeps listening and the registration deadline, not an
    auth crash, reports the missing rank."""
    with Coordinator(2, timeout_seconds=0.8, auth_key=FABRIC_KEY) as coord:
        failures = []

        def _wrong_key():
            try:
                RankEndpoint(0, coord.address, timeout_seconds=5.0,
                             auth_key=b"not-it").connect()
            except FabricError as exc:
                failures.append(exc)

        t = threading.Thread(target=_wrong_key, daemon=True)
        t.start()
        with pytest.raises(ClusterTimeout):
            coord.wait_for_ranks()
        t.join(timeout=5.0)
        assert failures, "wrong-key rank should have been refused"


def test_keyless_rank_against_keyed_coordinator_names_the_problem():
    with Coordinator(1, timeout_seconds=0.8, auth_key=FABRIC_KEY) as coord:
        errors = []

        def _keyless():
            try:
                RankEndpoint(0, coord.address, timeout_seconds=5.0).connect()
            except FabricError as exc:
                errors.append(str(exc))

        t = threading.Thread(target=_keyless, daemon=True)
        t.start()
        with pytest.raises(ClusterTimeout):
            coord.wait_for_ranks()
        t.join(timeout=5.0)
        assert errors and "auth key" in errors[0]


def test_keyless_rank_gets_authentication_error_at_its_assign_wait():
    """A keyed coordinator's AUTH_CHALLENGE lands where an unkeyed
    rank waits for ASSIGN; ``run_rank`` raises AuthenticationError
    naming the fix instead of a framing complaint."""
    from repro.fabric import run_rank

    errors = []
    with Coordinator(1, timeout_seconds=0.8, auth_key=FABRIC_KEY) as coord:
        def _keyless():
            try:
                run_rank(0, coord.address, timeout_seconds=5.0)
            except BaseException as exc:  # checked below
                errors.append(exc)

        t = threading.Thread(target=_keyless, daemon=True)
        t.start()
        with pytest.raises(ClusterTimeout):
            coord.wait_for_ranks()
        t.join(timeout=5.0)
    assert len(errors) == 1 and isinstance(errors[0], AuthenticationError)
    assert "--auth-key-env" in str(errors[0])


def test_launch_has_no_rejoin_flag(capsys):
    """A replacement is recognised by the coordinator, not announced:
    ``--rejoin`` is gone and argparse refuses it."""
    from repro.fabric.launch import main

    with pytest.raises(SystemExit) as exc:
        main(["--coordinator", "127.0.0.1:1", "--rank", "0", "--rejoin"])
    assert exc.value.code == 2
    assert "--rejoin" in capsys.readouterr().err

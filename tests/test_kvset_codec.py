"""The binary KVSet codec, tested in isolation.

The exchange and the result path (streamed fabric frames, on local
and cluster alike) ride ``KeyValueSet.to_buffers``/``from_buffers``
and the batch-level ``pack_parts``/``unpack_parts``, so the codec must
be bit-exact across dtypes, shapes, and scales, zero-copy on decode,
and loud about malformed bytes — with typed errors only.
"""

import socket
import struct
import tracemalloc

import numpy as np
import pytest

from repro.core.dataflow import merge_incoming, reduce_worker
from repro.core.kvset import (
    _FLAG_UNIFORM,
    _KV_HEADER,
    CODEC_VERSION,
    CodecError,
    KeyValueSet,
    pack_parts,
    unpack_parts,
)


def _round_trip(kv: KeyValueSet) -> KeyValueSet:
    header, buffers = kv.to_buffers()
    return KeyValueSet.from_buffers(header, buffers)


def _assert_bit_identical(a: KeyValueSet, b: KeyValueSet) -> None:
    assert a.keys.dtype == b.keys.dtype
    assert a.values.dtype == b.values.dtype
    assert a.values.shape == b.values.shape
    assert a.keys.tobytes() == b.keys.tobytes()
    assert a.values.tobytes() == b.values.tobytes()
    assert a.scale == b.scale


def test_round_trip_default_dtypes():
    kv = KeyValueSet(
        keys=np.arange(1000, dtype=np.uint32),
        values=np.linspace(-1.0, 1.0, 1000),
        scale=16.0,
    )
    _assert_bit_identical(kv, _round_trip(kv))


def test_round_trip_empty_kvset():
    """An empty set keeps its dtypes and width through the codec."""
    kv = KeyValueSet.empty(
        key_dtype=np.int64, value_dtype=np.float32, value_width=3, scale=2.0
    )
    got = _round_trip(kv)
    _assert_bit_identical(kv, got)
    assert len(got) == 0
    assert got.value_width == 3


def test_round_trip_2d_fixed_width_values():
    kv = KeyValueSet(
        keys=np.arange(7, dtype=np.uint32),
        values=np.arange(7 * 5, dtype=np.float64).reshape(7, 5),
    )
    got = _round_trip(kv)
    _assert_bit_identical(kv, got)
    assert got.value_width == 5


@pytest.mark.parametrize(
    "key_dtype,value_dtype",
    [(np.int64, np.int16), (np.uint8, np.float32), (np.uint64, np.int32)],
)
def test_round_trip_non_default_dtypes(key_dtype, value_dtype):
    rng = np.random.default_rng(7)
    kv = KeyValueSet(
        keys=rng.integers(0, 100, 64).astype(key_dtype),
        values=rng.integers(0, 100, 64).astype(value_dtype),
    )
    _assert_bit_identical(kv, _round_trip(kv))


def test_round_trip_non_contiguous_input():
    """Strided views are made contiguous at encode, not corrupted."""
    keys = np.arange(64, dtype=np.uint32)[::2]
    values = np.arange(64, dtype=np.float64)[::2]
    kv = KeyValueSet(keys=keys, values=values)
    got = _round_trip(kv)
    assert np.array_equal(got.keys, keys)
    assert got.values.tobytes() == np.ascontiguousarray(values).tobytes()


def test_decode_is_zero_copy():
    kv = KeyValueSet(
        keys=np.arange(16, dtype=np.uint32), values=np.ones(16)
    )
    manifest, chunks, nbytes = pack_parts([kv])
    data = b"".join(bytes(c) for c in chunks)
    assert len(data) == nbytes
    (got,) = unpack_parts(manifest, data)
    # Views into the caller's buffer, not fresh allocations.
    assert not got.keys.flags.owndata
    assert not got.values.flags.owndata
    _assert_bit_identical(kv, got)


def test_pack_parts_preserves_order_and_heterogeneous_layouts():
    parts = [
        KeyValueSet(keys=np.arange(5, dtype=np.uint32), values=np.arange(5.0)),
        KeyValueSet.empty(value_width=2),
        KeyValueSet(
            keys=np.arange(3, dtype=np.int64),
            values=np.arange(6, dtype=np.float32).reshape(3, 2),
            scale=4.0,
        ),
    ]
    manifest, chunks, nbytes = pack_parts(parts)
    got = unpack_parts(manifest, b"".join(bytes(c) for c in chunks))
    assert len(got) == 3
    for original, decoded in zip(parts, got):
        _assert_bit_identical(original, decoded)


def test_mixed_scale_concat_rejected_through_exchange_path():
    """Scales survive the codec, so the concat guard still fires after
    a batch has been through encode/decode — the exchange cannot
    silently merge differently-scaled samples."""
    parts = [
        KeyValueSet(keys=np.arange(4, dtype=np.uint32), values=np.ones(4),
                    scale=1.0),
        KeyValueSet(keys=np.arange(4, dtype=np.uint32), values=np.ones(4),
                    scale=2.0),
    ]
    manifest, chunks, _ = pack_parts(parts)
    decoded = unpack_parts(manifest, b"".join(bytes(c) for c in chunks))
    assert [p.scale for p in decoded] == [1.0, 2.0]
    with pytest.raises(ValueError, match="mixed scales"):
        KeyValueSet.concat(decoded)
    # ...and through the real reduce path a worker runs after exchange.
    from repro.apps.sparse_int_occurrence import sio_job

    incoming = merge_incoming([(0, [decoded[0]]), (1, [decoded[1]])])
    with pytest.raises(ValueError, match="mixed scales"):
        reduce_worker(sio_job(key_space=16), incoming)


def test_header_corruption_is_detected():
    kv = KeyValueSet(keys=np.arange(4, dtype=np.uint32), values=np.ones(4))
    header, buffers = kv.to_buffers()
    with pytest.raises(CodecError, match="magic"):
        KeyValueSet.from_buffers(b"XX" + header[2:], buffers)
    with pytest.raises(CodecError, match="truncated"):
        KeyValueSet.from_buffers(header[:5], buffers)
    bad_version = header[:2] + bytes([99]) + header[3:]
    with pytest.raises(CodecError, match="v99"):
        KeyValueSet.from_buffers(bad_version, buffers)


def _header(key_dtype=b"<u4", value_dtype=b"<f8", n=4, ndim=1, width=1, scale=1.0):
    return _KV_HEADER.pack(
        b"KV", CODEC_VERSION, ndim, 0, len(key_dtype), len(value_dtype),
        n, width, scale,
    ) + key_dtype + value_dtype


def test_header_dtypes_come_from_an_allow_list():
    """Wire bytes never reach ``np.dtype()`` unchecked: a header naming
    anything but an integer key and a bool/integer/float value — or
    bytes that are no dtype at all — is a CodecError, never a
    TypeError, UnicodeDecodeError or SyntaxError."""
    keys = np.arange(4, dtype=np.uint32)
    buffers = [keys, np.ones(4)]
    for key_dtype, value_dtype in [
        (b"<f8", b"<f8"),
        (b"|b1", b"<f8"),
        (b"<u4", b"<c16"),
        (b"<u4", b"|O"),
        (b"<u4", b"<U2"),
        (b"<u4", b"<f16"),
        (b"<u4", b"<i3"),
        (b"<u4", b"\xff\xfe\xfd"),
        (b"<u4", b"(4,"),
        (b"u4", b"<f8"),
    ]:
        with pytest.raises(CodecError, match="unsupported dtype"):
            KeyValueSet.from_buffers(_header(key_dtype, value_dtype), buffers)
    # every code the codec emits decodes, in either byte order
    for order in "<>":
        for code in ["i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8", "f2", "f4", "f8"]:
            dtype = np.dtype(order + code)
            kv = KeyValueSet(keys=keys, values=np.arange(4).astype(dtype))
            _assert_bit_identical(kv, _round_trip(kv))
    flags = KeyValueSet(keys=keys, values=np.array([True, False, True, True]))
    _assert_bit_identical(flags, _round_trip(flags))


def test_values_the_codec_cannot_carry_fail_at_the_sender():
    """The encoder refuses what the decoder would: a complex or object
    value column is a CodecError before any byte is sent."""
    keys = np.arange(4, dtype=np.uint32)
    for values in (np.ones(4, dtype=np.complex128), np.array(list("abcd"), dtype=object)):
        with pytest.raises(CodecError, match="bool, integer and float"):
            KeyValueSet(keys=keys, values=values).to_buffers()


def test_scale_and_width_are_checked():
    """A scale that is not positive and finite, or a rank-1 value
    column declaring a width, is a CodecError on decode; a NaN or
    infinite scale no longer passes the constructor either."""
    keys = np.arange(4, dtype=np.uint32)
    buffers = [keys, np.ones(4)]
    for scale in (float("nan"), float("inf"), -1.0, 0.0):
        with pytest.raises(CodecError, match="scale"):
            KeyValueSet.from_buffers(_header(scale=scale), buffers)
        with pytest.raises(ValueError, match="scale"):
            KeyValueSet(keys=keys, values=np.ones(4), scale=scale)
    with pytest.raises(CodecError, match="width"):
        KeyValueSet.from_buffers(_header(n=2, width=2), [keys[:2], np.ones(4)])


def test_buffer_length_mismatch_is_detected():
    kv = KeyValueSet(keys=np.arange(4, dtype=np.uint32), values=np.ones(4))
    header, buffers = kv.to_buffers()
    with pytest.raises(CodecError, match="key buffer"):
        KeyValueSet.from_buffers(header, [buffers[0][:-1], buffers[1]])
    with pytest.raises(CodecError, match="value buffer"):
        KeyValueSet.from_buffers(header, [buffers[0], buffers[1][:-8]])


def test_manifest_corruption_is_detected():
    kv = KeyValueSet(keys=np.arange(4, dtype=np.uint32), values=np.ones(4))
    manifest, chunks, _ = pack_parts([kv])
    data = b"".join(bytes(c) for c in chunks)
    with pytest.raises(CodecError, match="magic"):
        unpack_parts(b"XXXX" + manifest[4:], data)
    with pytest.raises(CodecError, match="promises more"):
        unpack_parts(manifest, data[:-4])
    with pytest.raises(CodecError, match="trailing"):
        unpack_parts(manifest + b"\x00\x00", data)


# -- codec v2: the uniform-column layout -----------------------------------------

def _uniform_kv(n=1000, element=np.int32(1)) -> KeyValueSet:
    return KeyValueSet(
        keys=np.arange(n, dtype=np.uint32), values=np.broadcast_to(element, (n,))
    )


def _kv_header(n, flags, ndim=1, width=1, version=CODEC_VERSION) -> bytes:
    """A hand-built ``<u4`` / ``<i4`` part header."""
    return _KV_HEADER.pack(b"KV", version, ndim, flags, 3, 3, n, width, 1.0) + b"<u4<i4"


def _manifest(*headers) -> bytes:
    records = b"".join(struct.pack("!I", len(h)) + h for h in headers)
    return struct.pack("!4sB3xI", b"KVPK", CODEC_VERSION, len(headers)) + records


def test_uniform_column_ships_one_element_and_decodes_uniform():
    kv = _uniform_kv()
    header, buffers = kv.to_buffers()
    assert header == _kv_header(1000, _FLAG_UNIFORM)
    assert [b.nbytes for b in buffers] == [4000, 4]
    got = KeyValueSet.from_buffers(header, buffers)
    _assert_bit_identical(
        KeyValueSet(keys=kv.keys, values=np.ones(1000, dtype=np.int32)), got
    )
    assert got.values.strides == (0,) and not got.values.flags.writeable
    # the logical layout is what byte accounting keeps reporting
    assert got.nbytes_logical == 8000 and got.pair_bytes == 8


def test_uniform_layout_violations_are_codec_errors():
    uni_header, (keys, element) = _uniform_kv(4).to_buffers()
    plain_header, (_, column) = KeyValueSet(
        keys=np.arange(4, dtype=np.uint32), values=np.ones(4, dtype=np.int32)
    ).to_buffers()
    cases = [
        (uni_header, [keys, element[:-1]], "value buffer"),      # truncated element
        (uni_header, [keys, column], "value buffer"),             # flag over n elements
        (plain_header, [keys, element], "value buffer"),          # no flag over 1
        (_kv_header(0, _FLAG_UNIFORM), [keys[:0], element], "non-empty"),
        (_kv_header(1 << 60, _FLAG_UNIFORM), [keys, element], "key buffer"),
        (_kv_header(1 << 60, 0), [keys, column], "key buffer"),
        (_kv_header(4, _FLAG_UNIFORM, ndim=2), [keys, element], "rank-1"),
        (_kv_header(4, _FLAG_UNIFORM, width=3), [keys, element], "rank-1"),
        (_kv_header(4, 0x82), [keys, element], "flags"),
        # a v1 header (no flags byte) is refused by version, not misparsed
        (struct.pack("!2sBBHHQQd", b"KV", 1, 1, 3, 3, 4, 1, 1.0) + b"<u4<i4",
         [keys, column], "v1 not supported"),
    ]
    for header, buffers, match in cases:
        with pytest.raises(CodecError, match=match):
            KeyValueSet.from_buffers(header, buffers)
    # n = 0 without the flag is an ordinary empty part
    (empty,) = unpack_parts(_manifest(_kv_header(0, 0)), b"")
    assert len(empty) == 0 and empty.values.dtype == np.int32


def test_decoding_allocates_nothing_proportional_to_declared_n():
    """The key buffer is what bounds ``n``: a uniform part decodes as
    views (any n), and a header that lies about n dies on the length
    check before anything is sized from it."""
    n = 1 << 22
    manifest, chunks, nbytes = pack_parts([_uniform_kv(n)])
    assert nbytes == 4 * n + 4
    data = b"".join(bytes(c) for c in chunks)
    liar = _manifest(_kv_header(1 << 60, _FLAG_UNIFORM))
    tracemalloc.start()
    try:
        (got,) = unpack_parts(manifest, data)
        with pytest.raises(CodecError, match="promises more"):
            unpack_parts(liar, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == n and got.values.nbytes == 4 * n
    assert peak < 64 * 1024


def test_uniform_layout_violations_are_protocol_errors_on_the_wire():
    """Through ``recv_batch`` the same streams surface as
    ``ProtocolError`` — the exchange loop's "corrupt peer" class."""
    from repro.fabric import recv_batch, send_batch, send_raw_frame
    from repro.fabric.stream import _BATCH_HEADER
    from repro.fabric.wire import MSG_BATCH, ProtocolError

    def deliver(manifest, data):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        try:
            send_raw_frame(
                a, MSG_BATCH,
                _BATCH_HEADER.pack(0, 0, 0, len(data), len(manifest)) + manifest,
            )
            a.sendall(data)
            return recv_batch(b)
        finally:
            a.close()
            b.close()

    keys = np.arange(4, dtype=np.uint32).tobytes()
    one = np.int32(1).tobytes()
    # the honest stream decodes...
    _, (got,), _ = deliver(_manifest(_kv_header(4, _FLAG_UNIFORM)), keys + one)
    assert got.values.tolist() == [1, 1, 1, 1]
    # ...and each dishonest one is a ProtocolError, nothing else
    for manifest, data in [
        (_manifest(_kv_header(4, _FLAG_UNIFORM)), keys + one[:-1]),
        (_manifest(_kv_header(1 << 60, _FLAG_UNIFORM)), keys + one),
        (_manifest(_kv_header(0, _FLAG_UNIFORM)), one),
        (_manifest(_kv_header(4, 0x40)), keys + one),
        (_manifest(
            struct.pack("!2sBBHHQQd", b"KV", 1, 1, 3, 3, 4, 1, 1.0) + b"<u4<i4"
        ), keys + keys),
    ]:
        with pytest.raises(ProtocolError, match="undecodable batch payload"):
            deliver(manifest, data)

    # and the real sender puts half the bytes on the wire
    def wire_bytes(kv):
        a, b = socket.socketpair()
        try:
            sent = send_batch(a, 0, [kv])
            recv_batch(b)
            return sent
        finally:
            a.close()
            b.close()

    uniform, plain = _uniform_kv(2000), _uniform_kv(2000)
    plain = KeyValueSet(plain.keys, np.ones(2000, dtype=np.int32))
    assert wire_bytes(plain) - wire_bytes(uniform) == 2000 * 4 - 4

"""The cluster fabric's wire layer, tested in isolation.

No executors, no dataflow: raw sockets (or socketpairs) exercising the
framing protocol — round-trips, bound enforcement, truncation and
disconnect detection, version negotiation failure — plus the
coordinator handshake against hand-rolled rank endpoints, including a
straggler that registers late and a rank that never shows up.
"""

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
    MSG_BATCH,
    MSG_BATCH_DATA,
    MSG_HELLO,
    PROTOCOL_VERSION,
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
    """The point of chunked streaming: a batch far beyond
    max_frame_bytes arrives whole instead of raising FrameTooLarge."""
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
    carries the empty parts, no DATA frames flow."""
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
    """A payload that lands exactly on the per-frame chunk room must
    ride in one full DATA frame — the boundary case between 'fits' and
    'splits' is off-by-one territory."""
    from repro.fabric.stream import _DATA_HEADER

    bound = 4096
    room = bound - _DATA_HEADER.size  # the largest raw chunk one frame carries
    # Buffers are chunked independently; size the pair count so the
    # key buffer is exactly one full frame and the value buffer (8 B
    # per value) exactly two — every DATA frame lands on the bound.
    assert room % 4 == 0
    n_pairs = room // 4
    parts = [
        KeyValueSet(
            keys=np.arange(n_pairs, dtype=np.uint32),
            values=np.linspace(0.0, 1.0, n_pairs),
        )
    ]
    assert parts[0].keys.nbytes == room
    assert parts[0].values.nbytes == 2 * room

    a, b = pair
    result = {}
    sender = threading.Thread(
        target=lambda: result.update(
            sent=send_batch(a, 1, parts, max_frame_bytes=bound)
        ),
        daemon=True,
    )
    sender.start()
    src, got, _tags = recv_batch(b, max_frame_bytes=bound)
    sender.join(timeout=10.0)
    assert src == 1
    _assert_parts_identical(got, parts)


def test_many_small_parts_coalesce_into_few_data_frames(pair):
    """Batch coalescing: hundreds of tiny parts pack into a handful of
    DATA frames instead of one-plus frames per buffer, and the
    ``counters`` hook reports the per-batch frame count."""
    a, b = pair
    parts = [
        KeyValueSet(
            keys=np.arange(4, dtype=np.uint32) + i,
            values=np.full(4, float(i)),
        )
        for i in range(200)
    ]
    counters = {}
    result = {}
    sender = threading.Thread(
        target=lambda: result.update(
            sent=send_batch(a, 2, parts, counters=counters)
        ),
        daemon=True,
    )
    sender.start()
    src, got, _tags = recv_batch(b)
    sender.join(timeout=10.0)
    assert src == 2
    _assert_parts_identical(got, parts)
    # 200 parts x 2 buffers each would be 400 DATA frames uncoalesced;
    # the whole ~10 KB payload packs into a single chunk.
    assert counters["frames"] == 2  # 1 BATCH + 1 DATA
    assert counters["bytes"] == result["sent"]


def test_batch_ships_every_chunk_raw(pair):
    """The wire byte count is the raw payload plus headers: one header
    frame (struct + manifest) and DATA frames carrying the chunks as
    they are.  The tiny key and value buffers coalesce into one DATA
    frame."""
    from repro.fabric.stream import _BATCH_HEADER, _DATA_HEADER
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
    expected = (
        _BATCH_HEADER.size + len(manifest)
        + _DATA_HEADER.size + payload_nbytes
    )
    assert sent == expected


def _deflate_bomb(inflated_nbytes):
    """A zlib stream that inflates to ``inflated_nbytes`` zero bytes,
    built a MiB at a time (about 1/1000 of its inflated size)."""
    z = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    return b"".join(z.compress(zeros) for _ in range(inflated_nbytes >> 20)) + z.flush()


def test_flagged_data_frame_is_refused_before_its_body_is_read(pair):
    """A DATA frame with a nonzero flags byte is a protocol error, and
    its body is never inflated: a 64 KiB deflate bomb from a peer
    allocates nothing near its 64 MiB."""
    from repro.fabric.stream import _BATCH_HEADER, _DATA_HEADER
    from repro.core.kvset import pack_parts

    inflated = 64 << 20
    bound = 1 << 20
    bomb = _deflate_bomb(inflated)
    assert len(bomb) < bound
    manifest, _buffers, _nbytes = pack_parts([KeyValueSet.empty()])
    a, b = pair
    send_raw_frame(
        a, MSG_BATCH, _BATCH_HEADER.pack(0, 0, inflated, len(manifest)) + manifest,
        max_frame_bytes=bound,
    )
    sender = threading.Thread(
        target=send_raw_frame,
        args=(a, MSG_BATCH_DATA, _DATA_HEADER.pack(inflated, 1) + bomb),
        kwargs={"max_frame_bytes": bound},
        daemon=True,
    )
    sender.start()
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError, match="flags"):
            recv_batch(b, max_frame_bytes=bound)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sender.join(timeout=10.0)
    assert peak < bound


def test_unknown_batch_header_flag_is_refused(pair):
    """The tag bit is the header's only flag; any other is refused
    before a DATA frame is read."""
    from repro.fabric.stream import _BATCH_HEADER
    from repro.core.kvset import pack_parts

    manifest, _buffers, nbytes = pack_parts([KeyValueSet.empty()])
    a, b = pair
    send_raw_frame(a, MSG_BATCH, _BATCH_HEADER.pack(0, 1, nbytes, len(manifest)) + manifest)
    with pytest.raises(ProtocolError, match="unknown flags"):
        recv_batch(b)


def test_unusably_small_frame_bound_is_loud(pair):
    a, _ = pair
    with pytest.raises(FrameTooLarge, match="no room"):
        send_batch(a, 0, _batch_parts(), max_frame_bytes=8)


def test_zero_length_batch_chunk_is_protocol_error(pair):
    """A DATA chunk that makes no progress must fail fast, not spin
    the receive loop until the job timeout."""
    from repro.fabric.stream import _BATCH_HEADER, _DATA_HEADER
    from repro.fabric.wire import MSG_BATCH_DATA

    a, b = pair
    send_raw_frame(a, MSG_BATCH, _BATCH_HEADER.pack(0, 0, 64, 0))
    send_raw_frame(a, MSG_BATCH_DATA, _DATA_HEADER.pack(0, 0))
    with pytest.raises(ProtocolError, match="zero-length"):
        recv_batch(b)


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

    # Proxy the header frame through untouched, but truncate the
    # declared total so the manifest promises more than arrives.
    from repro.fabric.stream import _BATCH_HEADER

    msg_type, payload = recv_raw_frame(b)
    src, flags, total, mlen = _BATCH_HEADER.unpack_from(payload)
    c, d = socket.socketpair()
    c.settimeout(5.0)
    d.settimeout(5.0)
    try:
        send_raw_frame(
            c,
            msg_type,
            _BATCH_HEADER.pack(src, flags, total // 2, mlen)
            + payload[_BATCH_HEADER.size :],
        )
        moved = 0
        while moved < total // 2:
            t, frame = recv_raw_frame(b)
            send_raw_frame(c, t, frame)
            moved = moved + len(frame) - 12
        with pytest.raises(ProtocolError):
            recv_batch(d)
    finally:
        sender.join(timeout=10.0)
        c.close()
        d.close()


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
    if delay:
        time.sleep(delay)
    ep = RankEndpoint(rank, address, timeout_seconds=timeout)
    ep.connect()
    return ep


def _register_expecting_rejection(sink, rank, address):
    """Thread target for ranks the coordinator will turn away."""
    try:
        sink.append(_register(rank, address))
    except PeerDisconnected:
        pass  # the coordinator hung up on us, as the test expects


def test_handshake_with_straggler_rank():
    """Registration order is free: a late rank still completes the
    handshake, and every rank learns the same cluster size."""
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
        for t in threads:
            t.join(timeout=10.0)
        try:
            assert len(endpoints) == 3
            assert all(ep.n_workers == 3 for ep in endpoints)
            assert set(coord.shuffle_peers) == {0, 1, 2}
            # Each advertised shuffle listener is really dialable.
            for host, port in coord.shuffle_peers.values():
                socket.create_connection((host, port), timeout=5.0).close()
        finally:
            for ep in endpoints:
                ep.close()


def test_registration_timeout_names_missing_ranks():
    with Coordinator(2, timeout_seconds=0.5) as coord:
        eps = []
        t = threading.Thread(
            target=lambda: eps.append(_register(0, coord.address)), daemon=True
        )
        t.start()
        try:
            with pytest.raises(ClusterTimeout, match=r"rank\(s\) \[1\]"):
                coord.wait_for_ranks()
        finally:
            t.join(timeout=5.0)
            for ep in eps:
                ep.close()


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
        for t in threads:
            t.join(timeout=10.0)
        try:
            assert set(coord.shuffle_peers) == {0, 1}
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
    from repro.core.runtime import resolve_chunks
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

    def rank_main(ep):
        ep.connect()
        ep.run_job()

    with Coordinator(2, timeout_seconds=10.0) as coord:
        eps = [RankEndpoint(r, coord.address, timeout_seconds=10.0)
               for r in range(2)]
        threads = [threading.Thread(target=rank_main, args=(ep,), daemon=True)
                   for ep in eps]
        try:
            for t in threads:
                t.start()
            coord.wait_for_ranks()
            coord.broadcast_assignments(sio_job(ds.key_space))
            coord.barrier("start")
            assert len(coord.collect_results(chunk_service=service)) == 2
            for t in threads:
                t.join(timeout=10.0)
            assert [_nodelay(c) for c in coord._conns.values()] == [True, True]
            assert [_nodelay(ep._control) for ep in eps] == [True, True]
            for kind, flags in seen.items():
                assert flags and all(flags), (kind, flags)
        finally:
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


def test_error_frame_at_barrier_surfaces_rank_traceback():
    """A rank that fails before the barrier reports its traceback as
    RankFailure, not as a framing ProtocolError."""
    from repro.fabric import RankFailure

    with Coordinator(1, timeout_seconds=10.0) as coord:
        eps = []
        t = threading.Thread(
            target=lambda: eps.append(_register(0, coord.address)), daemon=True
        )
        t.start()
        coord.wait_for_ranks()
        t.join(timeout=10.0)
        try:
            eps[0].report(None, None, "Traceback: boom before barrier")
            with pytest.raises(RankFailure, match="boom before barrier"):
                coord.barrier("start")
        finally:
            for ep in eps:
                ep.close()


def test_broadcast_to_dead_rank_names_the_rank():
    """A rank that registers and dies before ASSIGN arrives surfaces
    as RankFailure(rank), not a bare disconnect from a send loop."""
    from repro.fabric import RankFailure

    with Coordinator(1, timeout_seconds=10.0) as coord:
        eps = []
        t = threading.Thread(
            target=lambda: eps.append(_register(0, coord.address)), daemon=True
        )
        t.start()
        coord.wait_for_ranks()
        t.join(timeout=10.0)
        eps[0].close()  # rank dies right after registering
        with pytest.raises(RankFailure, match="rank 0"):
            # One ASSIGN payload cannot overrun the socket buffers, so
            # grow it until the dead peer's RST is felt mid-send.
            for _ in range(50):
                coord.broadcast_assignments(b"x" * (1 << 20))
                time.sleep(0.02)


def test_duplicate_rank_is_rejected():
    with Coordinator(2, timeout_seconds=5.0) as coord:
        eps = []
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
        try:
            with pytest.raises(FabricError, match="duplicate registration"):
                coord.wait_for_ranks()
        finally:
            for t in threads:
                t.join(timeout=5.0)
            for ep in eps:
                ep.close()


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

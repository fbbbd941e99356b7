"""Length-prefixed framed messaging: the cluster fabric's wire format.

Every message on a fabric socket is one *frame*::

    +-------+---------+------+----------+----------------+---------...
    | magic | version | type | reserved | payload length | payload
    | 4 B   | 1 B     | 1 B  | 2 B      | 8 B (big-end.) | pickled object
    +-------+---------+------+----------+----------------+---------...

The header is fixed (16 bytes, network byte order) and versioned, so a
rank launched from a different repo revision fails fast with
:class:`ProtocolVersionError` instead of desynchronising mid-shuffle.
Control-plane payloads (jobs, chunk lists, result stats) are pickled
Python objects (:func:`send_frame` / :func:`recv_frame`); data-plane
payloads are *raw bytes* (:func:`send_raw_frame` /
:func:`recv_raw_frame`) — the shuffle's ``BATCH`` traffic and each
rank's output behind its ``RESULT`` frame ride the binary KVSet codec
via :mod:`repro.fabric.stream`, never pickle; a ``BATCH`` frame is
followed by its raw payload, outside any frame.  A raw frame leaves as
a gathered ``sendmsg`` of its head and the caller's buffers and is read
with ``recv_into``, so each payload byte is copied once per hop.  The
length prefix makes message boundaries explicit on the byte stream,
and the enforced :data:`MAX_FRAME_BYTES` bound rejects corrupted or hostile
lengths before any allocation happens.

EOF handling distinguishes two cases the coordinator cares about:

* a socket that closes *between* frames raises :class:`PeerDisconnected`
  (orderly death — a rank process exited);
* a socket that closes *inside* a frame raises :class:`TruncatedFrame`
  (the peer died mid-send, or the stream corrupted).

**Trust model**: control-plane payloads are pickles, and unpickling
attacker-supplied bytes is code execution — the frame bound guards
allocation, not authenticity.  v5 adds the HMAC challenge-response
handshake (:func:`deliver_challenge` / :func:`answer_challenge`, à la
``multiprocessing.connection``): when a listener holds a key, every
accepted connection must answer a fresh random challenge with
``HMAC-SHA256(key, challenge)`` before *any* pickled frame is read —
the pre-auth exchange rides raw frames only, so unauthenticated bytes
are never unpickled.  The handshake authenticates connection
establishment, not the stream (no per-frame MAC, no encryption), so a
shared-key deployment still wants the private network below; it stops
is-anyone-listening port scans and wrong-cluster cross-talk, not an
on-path attacker.  Like the MPI interconnect it reproduces, the fabric
assumes a *private, trusted network*: bind ``127.0.0.1`` (the default)
or an isolated cluster interface, never an internet-facing address.
"""

from __future__ import annotations

import hmac
import json
import os
import pickle
import secrets
import socket
import struct
from typing import Any, Optional, Tuple, Union

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MSG_NAMES",
    "MSG_HELLO",
    "MSG_WELCOME",
    "MSG_ASSIGN",
    "MSG_BARRIER",
    "MSG_RESULT",
    "MSG_ERROR",
    "MSG_BATCH",
    "MSG_CHUNK_REQ",
    "MSG_CHUNK_GRANT",
    "MSG_CHUNKS_DONE",
    "MSG_BATCH_ACK",
    "MSG_MAPS_DONE",
    "MSG_AUTH_CHALLENGE",
    "MSG_AUTH_RESPONSE",
    "MSG_AUTH_OK",
    "MSG_SUBMIT",
    "MSG_JOB_RESULT",
    "MSG_JOB_ERROR",
    "CHALLENGE_BYTES",
    "FabricError",
    "ProtocolError",
    "ProtocolVersionError",
    "FrameTooLarge",
    "TruncatedFrame",
    "PeerDisconnected",
    "AuthenticationError",
    "set_nodelay",
    "send_frame",
    "recv_frame",
    "decode_payload",
    "send_raw_frame",
    "recv_raw_frame",
    "send_versioned_error",
    "deliver_challenge",
    "answer_challenge",
    "load_auth_key",
    "parse_address",
]

#: Bump on any incompatible header or message change; CHANGES.md keeps
#: what each bump changed.  v11: CHUNKS_DONE loses its ``retry`` flag,
#: and on a keyed fabric a shuffle connection is challenged before its
#: batch.
PROTOCOL_VERSION = 11

MAGIC = b"GPMR"

#: magic(4s) version(B) msg_type(B) reserved(2x) payload_len(Q)
HEADER = struct.Struct("!4sBB2xQ")

#: Refuse frames above this many payload bytes (1 GiB), on send and on
#: receive.  It bounds control-plane pickles only: a batch's payload
#: follows its frame and passes it.  Read at call time, by
#: :func:`_frame_head` and :func:`recv_raw_frame` alone.
MAX_FRAME_BYTES = 1 << 30

#: Most buffers one ``sendmsg`` call gathers (Linux's ``IOV_MAX``).
_IOV_MAX = 1024

# -- message types ----------------------------------------------------------
MSG_HELLO = 1    #: rank -> coordinator: register {rank, shuffle address}
MSG_WELCOME = 2  #: daemon -> client: connection accepted {protocol}
MSG_ASSIGN = 3   #: coordinator -> rank: {job, epoch, peers, n_workers, fault, obs}
MSG_BARRIER = 4  #: reserved (v5's start barrier); only the frame-RTT probe sends it
MSG_RESULT = 6   #: rank -> coordinator: {rank, stats, obs}; output batch follows
MSG_ERROR = 7    #: rank -> coordinator: {rank, traceback}
MSG_BATCH = 8    #: rank -> rank: shuffle batch header; its raw payload follows
# type 9 is reserved (v2–v8's BATCH_DATA)
MSG_CHUNK_REQ = 10    #: rank -> coordinator: give me my next chunk
MSG_CHUNK_GRANT = 11  #: coordinator -> rank: {chunk, victim}
MSG_CHUNKS_DONE = 12  #: coordinator -> rank: no more work for you
MSG_BATCH_ACK = 13    #: rank -> rank: your shuffle batch arrived intact
MSG_MAPS_DONE = 14    #: rank -> coordinator: map phase over, posting batches
MSG_AUTH_CHALLENGE = 15  #: listener -> peer: random nonce to HMAC (raw)
MSG_AUTH_RESPONSE = 16   #: peer -> listener: HMAC-SHA256(key, nonce) (raw)
MSG_AUTH_OK = 17         #: listener -> peer: digest verified, proceed (raw)
MSG_SUBMIT = 18      #: client -> daemon: run this job {app, dataset, ...}
MSG_JOB_RESULT = 19  #: daemon -> client: finished job's outputs + stats
MSG_JOB_ERROR = 20   #: daemon -> client: the job (or submission) failed

MSG_NAMES = {
    MSG_HELLO: "HELLO",
    MSG_WELCOME: "WELCOME",
    MSG_ASSIGN: "ASSIGN",
    MSG_BARRIER: "BARRIER",
    MSG_RESULT: "RESULT",
    MSG_ERROR: "ERROR",
    MSG_BATCH: "BATCH",
    MSG_CHUNK_REQ: "CHUNK_REQ",
    MSG_CHUNK_GRANT: "CHUNK_GRANT",
    MSG_CHUNKS_DONE: "CHUNKS_DONE",
    MSG_BATCH_ACK: "BATCH_ACK",
    MSG_MAPS_DONE: "MAPS_DONE",
    MSG_AUTH_CHALLENGE: "AUTH_CHALLENGE",
    MSG_AUTH_RESPONSE: "AUTH_RESPONSE",
    MSG_AUTH_OK: "AUTH_OK",
    MSG_SUBMIT: "SUBMIT",
    MSG_JOB_RESULT: "JOB_RESULT",
    MSG_JOB_ERROR: "JOB_ERROR",
}


class FabricError(RuntimeError):
    """Base class for every cluster-fabric failure."""


class ProtocolError(FabricError):
    """The byte stream violated the framing protocol."""


class ProtocolVersionError(ProtocolError):
    """Peer speaks a different fabric protocol revision.

    ``peer_version`` carries the revision the peer's frame header
    declared (None when unknowable), so listeners can answer legacy
    clients with a useful versioned refusal instead of a bare close.
    """

    def __init__(self, message: str, peer_version: Optional[int] = None) -> None:
        super().__init__(message)
        self.peer_version = peer_version


class FrameTooLarge(ProtocolError):
    """Declared payload length exceeds the enforced bound."""


class TruncatedFrame(ProtocolError):
    """The stream ended in the middle of a frame."""


class PeerDisconnected(FabricError):
    """The peer closed the connection at a frame boundary."""


class AuthenticationError(FabricError):
    """The HMAC challenge-response handshake failed."""


def set_nodelay(sock: socket.socket) -> socket.socket:
    """Turn Nagle's algorithm off on one fabric TCP connection.

    Fabric frames are small and written whole (a CHUNK_REQ, a
    BATCH_ACK).  With Nagle on, a small frame written behind one the
    peer has not yet acknowledged waits for that peer's delayed ACK —
    about 40 ms on Linux — before it leaves.  Every connect and accept
    in the fabric goes through here.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def recv_into_exact(sock: socket.socket, view, *, at_boundary: bool) -> None:
    """Fill the writable byte buffer ``view`` from the socket with
    ``recv_into`` — one copy, kernel to destination — mapping EOF to
    the right fabric error."""
    view = memoryview(view)
    got = 0
    while got < view.nbytes:
        try:
            k = sock.recv_into(view[got:] if got else view)
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise PeerDisconnected(f"connection reset: {exc}") from exc
        if not k:
            if at_boundary and not got:
                raise PeerDisconnected("peer closed the connection")
            raise TruncatedFrame(
                f"stream ended after {got} of {view.nbytes} expected bytes"
            )
        got += k


def _recv_exact(sock: socket.socket, n: int, *, at_boundary: bool) -> bytearray:
    buf = bytearray(n)
    recv_into_exact(sock, buf, at_boundary=at_boundary)
    return buf


def _send_buffers(sock: socket.socket, buffers: list, nbytes: int) -> None:
    """Write ``buffers`` (``nbytes`` in all) end to end with gathered
    ``sendmsg`` calls.

    A partial write resumes inside the buffer it stopped in; one call
    gathers at most ``_IOV_MAX`` buffers, the kernel's iovec limit.
    """
    while True:
        try:
            sent = sock.sendmsg(buffers[:_IOV_MAX])
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise PeerDisconnected(f"send failed: {exc}") from exc
        nbytes -= sent
        if not nbytes:
            return
        first = 0
        while sent >= len(buffers[first]):
            sent -= len(buffers[first])
            first += 1
        buffers = [memoryview(buffers[first])[sent:], *buffers[first + 1 :]]


def _frame_head(msg_type: int, length: int) -> bytes:
    """The 16-byte head of a ``length``-byte frame, refused with
    :class:`FrameTooLarge` above :data:`MAX_FRAME_BYTES`."""
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"refusing to send {length} B "
            f"{MSG_NAMES.get(msg_type, msg_type)} frame "
            f"(MAX_FRAME_BYTES={MAX_FRAME_BYTES})"
        )
    return HEADER.pack(MAGIC, PROTOCOL_VERSION, msg_type, length)


def send_raw_frame(sock: socket.socket, msg_type: int, payload) -> int:
    """Send one framed message whose payload is raw bytes, as-is.

    The data plane's primitive: no pickling and no copy.  ``payload``
    is one byte buffer (``bytes``, ``bytearray``, a ``"B"``
    memoryview) or a list of them, laid end to end on the wire; the
    frame head and every buffer leave in gathered ``sendmsg`` writes.
    Returns the number of payload bytes put on the wire (the fabric's
    real network-traffic accounting).
    """
    buffers = payload if isinstance(payload, list) else [payload]
    length = sum(map(len, buffers))
    head = _frame_head(msg_type, length)
    _send_buffers(sock, [head, *buffers], HEADER.size + length)
    return length


def recv_raw_frame(
    sock: socket.socket, *, expect: Optional[int] = None
) -> Tuple[int, bytearray]:
    """Receive one frame; returns ``(msg_type, payload_bytes)``.

    The header's magic, version and :data:`MAX_FRAME_BYTES` bound are
    checked before the payload is read straight into its buffer.  With
    ``expect``, a frame of any other type is a :class:`ProtocolError`
    (fail fast on desynchronised peers).
    """
    raw = _recv_exact(sock, HEADER.size, at_boundary=True)
    magic, version, msg_type, length = HEADER.unpack(raw)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolVersionError(
            f"peer speaks fabric protocol v{version}, "
            f"this build speaks v{PROTOCOL_VERSION}",
            peer_version=version,
        )
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"declared payload of {length} B exceeds "
            f"MAX_FRAME_BYTES={MAX_FRAME_BYTES}"
        )
    payload = _recv_exact(sock, length, at_boundary=False)
    if expect is not None and msg_type != expect:
        raise ProtocolError(
            f"expected {MSG_NAMES.get(expect, expect)} frame, "
            f"got {MSG_NAMES.get(msg_type, msg_type)}"
        )
    return msg_type, payload


def send_frame(sock: socket.socket, msg_type: int, payload: Any) -> int:
    """Pickle ``payload`` and send it as one framed message.

    The control plane's primitive (HELLO/ASSIGN/RESULT/...); shuffle
    batches use :mod:`repro.fabric.stream` raw frames instead.
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return send_raw_frame(sock, msg_type, blob)


def recv_frame(
    sock: socket.socket, *, expect: Optional[int] = None
) -> Tuple[int, Any]:
    """Receive one pickled-payload frame; returns ``(msg_type, payload)``.

    A payload that does not unpickle (a length lie cut it short, or the
    bytes are not a pickle) is a :class:`ProtocolError`, like any other
    frame the stream could not have carried."""
    msg_type, payload = recv_raw_frame(sock, expect=expect)
    return msg_type, decode_payload(msg_type, payload)


def decode_payload(msg_type: int, payload) -> Any:
    """Unpickle one received frame's payload; whatever unpickling
    raises is a :class:`ProtocolError`."""
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - whatever a garbled pickle raises
        raise ProtocolError(
            f"undecodable {MSG_NAMES.get(msg_type, msg_type)} payload: {exc!r}"
        ) from exc


# -- authentication ---------------------------------------------------------

#: Challenge nonce size.  32 random bytes per connection: a replayed
#: AUTH_RESPONSE from a sniffed handshake never matches the next
#: connection's fresh nonce.
CHALLENGE_BYTES = 32


def _coerce_auth_key(key: Union[str, bytes, bytearray]) -> bytes:
    if isinstance(key, str):
        key = key.encode("utf-8")
    if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
        raise ValueError("auth key must be a non-empty str or bytes")
    return bytes(key)


def _auth_digest(key: bytes, nonce: bytes) -> bytes:
    return hmac.new(key, nonce, "sha256").digest()


def deliver_challenge(sock: socket.socket, key: Union[str, bytes]) -> None:
    """Listener side of the HMAC handshake (à la
    ``multiprocessing.connection.deliver_challenge``).

    Sends a fresh random nonce, reads the peer's ``AUTH_RESPONSE``
    digest, and compares it in constant time
    (:func:`secrets.compare_digest`).  On a match the peer gets
    ``AUTH_OK``; on a mismatch it gets a raw ``JOB_ERROR`` refusal and
    this raises :class:`AuthenticationError` — callers close the
    socket.  Every frame in the exchange is raw: no byte from the peer
    is unpickled before its key checks out.
    """
    key = _coerce_auth_key(key)
    nonce = os.urandom(CHALLENGE_BYTES)
    send_raw_frame(sock, MSG_AUTH_CHALLENGE, nonce)
    _, response = recv_raw_frame(sock, expect=MSG_AUTH_RESPONSE)
    if not secrets.compare_digest(response, _auth_digest(key, nonce)):
        try:
            send_raw_frame(
                sock,
                MSG_JOB_ERROR,
                json.dumps({"error": "authentication failed"}).encode("utf-8"),
            )
        except FabricError:
            pass
        raise AuthenticationError("peer answered the challenge with a bad digest")
    send_raw_frame(sock, MSG_AUTH_OK, b"")


def answer_challenge(
    sock: socket.socket, key: Union[str, bytes], *,
    challenge: Optional[bytes] = None,
) -> None:
    """Connecting side of the HMAC handshake.

    Reads the listener's ``AUTH_CHALLENGE`` nonce (or takes one a
    caller already pulled off the wire while sniffing the first frame,
    via ``challenge=``), answers with ``HMAC-SHA256(key, nonce)``, and
    waits for ``AUTH_OK``.  Anything else back — the listener's
    refusal — raises :class:`AuthenticationError`.
    """
    key = _coerce_auth_key(key)
    if challenge is not None:
        nonce = challenge
    else:
        _, nonce = recv_raw_frame(sock, expect=MSG_AUTH_CHALLENGE)
    send_raw_frame(sock, MSG_AUTH_RESPONSE, _auth_digest(key, nonce))
    msg_type, payload = recv_raw_frame(sock)
    if msg_type != MSG_AUTH_OK:
        detail = payload.decode("utf-8", "replace") or "no detail"
        raise AuthenticationError(
            f"listener rejected our key "
            f"({MSG_NAMES.get(msg_type, msg_type)}: {detail})"
        )


def load_auth_key(
    env: Optional[str] = None, path: Optional[str] = None
) -> Optional[bytes]:
    """Resolve a shared auth key from an env var or a key file.

    The CLI surfaces (``repro.fabric.launch``, ``repro.service.daemon``
    and its client) all take the key indirectly — an environment
    variable name or a file path — so the secret itself never appears
    in ``argv`` or shell history.  Returns None when neither source is
    given; raises when a named source is missing or empty.
    """
    if env is not None and path is not None:
        raise ValueError("give the auth key via env var or file, not both")
    if env is not None:
        value = os.environ.get(env)
        if not value:
            raise ValueError(f"auth-key env var {env!r} is unset or empty")
        return _coerce_auth_key(value)
    if path is not None:
        with open(path, "rb") as fh:
            value = fh.read().strip()
        if not value:
            raise ValueError(f"auth-key file {path!r} is empty")
        return _coerce_auth_key(value)
    return None


def send_versioned_error(
    sock: socket.socket, detail: str, *, peer_version: Optional[int] = None
) -> None:
    """Refuse a mis-versioned or unauthorized peer with a raw frame.

    The payload is UTF-8 JSON naming this build's protocol version
    (and the peer's, when its header revealed one) — raw, never
    pickled, so even a legacy or hostile peer gets a parseable reason
    instead of a silent close.  The v5 frame header itself tells a
    well-behaved older client what the listener speaks.  Best-effort:
    send failures are swallowed (the peer may already be gone).
    """
    body = {"error": detail, "protocol_version": PROTOCOL_VERSION}
    if peer_version is not None:
        body["peer_version"] = peer_version
    try:
        send_raw_frame(sock, MSG_JOB_ERROR, json.dumps(body).encode("utf-8"))
    except FabricError:
        pass


def parse_address(spec: str) -> Tuple[str, int]:
    """Parse a ``host:port`` spec (the launcher's --coordinator form)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {spec!r} is not of the form host:port")
    return host, int(port)

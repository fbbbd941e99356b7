"""Rank-side endpoint of the cluster fabric.

A :class:`RankEndpoint` is everything one worker rank needs to take
part in a fabric run: a control connection to the coordinator and its
own shuffle listener for the data plane.  It is the cluster backend's
*link* — the framed-TCP transport the shared rank loop
(:func:`repro.exec.rank.drive_rank`) runs over, see the link contract
there.  It is the only link the process backends have: ``local`` is
the cluster backend on loopback.

* **one round trip before work**: the rank sends ``HELLO`` and waits
  for ``ASSIGN`` (:meth:`RankEndpoint.connect`); nothing else precedes
  its first chunk request.
* **ranks outlive a run**: after its RESULT the rank drops the finished
  run and waits on the same control connection for the next ASSIGN
  (:meth:`RankEndpoint.serve`), with no timer: the wait ends
  on an ASSIGN or on the EOF the coordinator's ``close()`` sends.  The
  shuffle listener keeps its port across runs; each run's batches
  carry its epoch, and the inbox drops a batch from any other run.
* **chunks are pulled, not pushed**: once assigned, the rank requests
  work over its control connection (``CHUNK_REQ`` ->
  ``CHUNK_GRANT``/``CHUNKS_DONE``), pipelined by the shared
  :class:`~repro.exec.rank.GrantPuller`.  A grant whose victim is
  another rank is a *steal* the coordinator's chunk service decided at
  runtime — dynamic load balancing over the real wire, externally
  launched ranks included.
* **exchange** is one batch per (src, dst): after its map phase a rank
  opens one connection to every peer's shuffle listener, streams
  exactly one batch — a raw-codec ``BATCH`` frame followed by the
  batch's raw bytes, see :mod:`repro.fabric.stream` — and accepts
  exactly ``n-1`` inbound batches.  Self-destined parts never touch
  the wire, and a batch larger than the wire's frame bound passes it:
  the bound limits the frame, not the bytes behind it.  With an
  ``auth_key`` each shuffle connection passes the coordinator's HMAC
  handshake before its batch, the sender answering the receiver's
  challenge.

The endpoint is transport-complete for multi-host runs: the rank
itself states where its shuffle listener is reachable (``listen_host``
/ ``advertise_host``) rather than anyone inferring it, and everything
else is plain TCP — the same code joins a fabric from another host via
``python -m repro.fabric.launch``.  Every control and shuffle
connection sets ``TCP_NODELAY`` (:func:`~repro.fabric.wire.set_nodelay`):
frames are small and written whole, and must not wait out the peer's
delayed ACK.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .stream import recv_batch, send_batch
from .wire import (
    MSG_ASSIGN,
    MSG_BATCH_ACK,
    MSG_CHUNK_GRANT,
    MSG_CHUNK_REQ,
    MSG_CHUNKS_DONE,
    MSG_ERROR,
    MSG_HELLO,
    MSG_MAPS_DONE,
    MSG_NAMES,
    MSG_RESULT,
    AuthenticationError,
    FabricError,
    PeerDisconnected,
    ProtocolError,
    ProtocolVersionError,
    answer_challenge,
    deliver_challenge,
    recv_frame,
    recv_raw_frame,
    send_frame,
    send_raw_frame,
    set_nodelay,
)
from ..core.scheduler import GRANT_CHUNK, GRANT_DONE
from ..obs import BYTES_BUCKETS, NULL_OBS, Observability

__all__ = ["RankEndpoint", "run_rank"]

#: Accept-loop wake interval: how often the inbox thread, blocked in
#: ``accept()``, looks at its stop flag.  It paces shutdown only — a
#: landed batch is handed over by notification, never on this tick.
_POLL_SECONDS = 0.2

#: First wait before resending an unconfirmed batch; each further
#: failure doubles it, up to the cap.
_RESEND_BACKOFF_SECONDS = 0.01
_RESEND_BACKOFF_CAP_SECONDS = 0.25


class RankEndpoint:
    """One rank's connections into the fabric (control + shuffle)."""

    def __init__(
        self,
        rank: int,
        coordinator: Tuple[str, int],
        listen_host: str = "127.0.0.1",
        advertise_host: Optional[str] = None,
        timeout_seconds: float = 120.0,
        listen_port: int = 0,
        auth_key: Optional[bytes] = None,
    ) -> None:
        self.rank = int(rank)
        self.coordinator_address = tuple(coordinator)
        self.timeout_seconds = float(timeout_seconds)
        #: shared secret for the coordinator's HMAC handshake; must
        #: match the coordinator's key (or be None when it has none)
        self.auth_key = auth_key
        # Data plane first: the listener must exist before HELLO
        # advertises it, so no peer can ever dial a closed port.  A
        # replacement binds its predecessor's exact port
        # (``listen_port``) so every surviving peer's directory stays
        # valid — retrying EADDRINUSE, because a survivor's outbound
        # retry can transiently occupy the freed port (loopback
        # self-connect / ephemeral source-port collision) until its
        # next backoff releases it.
        bind_deadline = time.monotonic() + self.timeout_seconds
        while True:
            try:
                self._shuffle_listener = socket.create_server(
                    (listen_host, int(listen_port)), backlog=16
                )
                break
            except OSError:
                if int(listen_port) == 0 or time.monotonic() > bind_deadline:
                    raise
                time.sleep(0.1)
        self._shuffle_listener.settimeout(_POLL_SECONDS)
        port = self._shuffle_listener.getsockname()[1]
        self.shuffle_address = (advertise_host or listen_host, port)
        self._control: Optional[socket.socket] = None
        self.n_workers: Optional[int] = None
        self.peers: Dict[int, Tuple[str, int]] = {}
        #: guards the inbox state and ``_withheld``; notified per landed
        #: batch and on inbox failure (:meth:`recv_all` waits on it)
        self._inbox_cond = threading.Condition()
        #: set by :meth:`close`: the inbox thread stops accepting
        self._inbox_stop = threading.Event()
        self._clear_run()

    def _clear_run(self) -> None:
        """Drop every reference to the last run; the sockets stay.

        Called before each wait for ASSIGN, so an idle rank holds no
        job, chunk, batch or output of the run it finished.
        """
        #: the ASSIGN payload :meth:`connect` / :meth:`_next_assignment`
        #: received, unpacked by :meth:`open`
        self._assignment: Dict[str, Any] = {}
        #: the run this rank is serving (ASSIGN's ``epoch``); stamped on
        #: every batch it sends and checked on every batch it receives
        self.epoch = 0
        #: rank-side observability bundle, armed by the ``obs`` flag on
        #: ASSIGN; the export payload rides home on the RESULT frame
        self.obs = NULL_OBS
        #: the pull state machine, built once ASSIGN has delivered the
        #: grant pipelining depth and the scripted fault injection
        self._puller = None
        # Early-exchange inbox: a background thread accepts inbound
        # shuffle batches while this rank is still mapping, so the
        # exchange only waits for genuinely late data.
        self._inbox_batches: List[Tuple[int, List[Any], Optional[List[int]]]] = []
        self._inbox_have: set = set()
        self._inbox_error: Optional[BaseException] = None
        self._inbox_thread: Optional[threading.Thread] = None
        #: set once MAPS_DONE is on the wire — inbound batches may not
        #: be ACKed before this (see :meth:`start_inbox`)
        self._posted_event = threading.Event()
        #: connections of batches that landed before this rank posted,
        #: their BATCH_ACK still owed (:meth:`_release_withheld`)
        self._withheld: List[socket.socket] = []

    # -- control plane -----------------------------------------------------
    def connect(self) -> None:
        """Dial the coordinator, send HELLO and wait for the first
        ASSIGN — the rank's one round trip before work.  Learns the
        cluster size and the peer directory;
        :meth:`open` unpacks the rest."""
        self._control = set_nodelay(socket.create_connection(
            self.coordinator_address, timeout=self.timeout_seconds
        ))
        if self.auth_key is not None:
            # The coordinator challenges first thing on accept; answer
            # before any other frame goes out.
            answer_challenge(self._control, self.auth_key)
        send_frame(
            self._control,
            MSG_HELLO,
            {"rank": self.rank, "shuffle_address": self.shuffle_address},
        )
        self._recv_assignment()

    def _next_assignment(self) -> bool:
        """Forget the finished run and wait for the next ASSIGN; False
        once the coordinator hangs up.

        An idle rank waits as long as its executor lives, so this wait
        has no deadline: it ends on the next ASSIGN or on EOF.
        """
        self._clear_run()
        self._control.settimeout(None)
        try:
            self._recv_assignment()
        except PeerDisconnected:
            return False
        self._control.settimeout(self.timeout_seconds)
        return True

    def _recv_assignment(self) -> None:
        try:
            _, assign = recv_frame(self._control, expect=MSG_ASSIGN)
        except ProtocolError as exc:
            if "AUTH_CHALLENGE" in str(exc):
                # A keyed coordinator challenged us and we had nothing
                # to answer with — name the fix, not the symptom.
                raise AuthenticationError(
                    "coordinator requires an auth key but this rank has "
                    "none configured (pass auth_key= / --auth-key-env)"
                ) from exc
            raise
        self.n_workers = int(assign["n_workers"])
        self.peers = {int(r): tuple(a) for r, a in assign["peers"].items()}
        self._assignment = assign

    def request_chunk(self) -> Optional[Tuple[Any, int]]:
        """Pull the rank's next ``(chunk, victim_rank)`` from the
        coordinator's service; None once it is done (the pipelined
        :class:`~repro.exec.rank.GrantPuller` over the two frame
        adapters below)."""
        return self._puller.next()

    def _send_chunk_request(self) -> None:
        send_frame(self._control, MSG_CHUNK_REQ, {"rank": self.rank})

    def _recv_chunk_answer(self) -> Tuple[int, Any, int]:
        msg_type, payload = recv_frame(self._control)
        if msg_type == MSG_CHUNKS_DONE:
            return GRANT_DONE, None, -1
        if msg_type != MSG_CHUNK_GRANT:
            raise FabricError(
                f"expected CHUNK_GRANT or CHUNKS_DONE, got "
                f"{MSG_NAMES.get(msg_type, msg_type)}"
            )
        return GRANT_CHUNK, payload["chunk"], int(payload["victim"])

    def mark_posted(self) -> None:
        """Announce the map/post boundary before any batch leaves: once
        the coordinator records this rank as posted, its chunks are no
        longer reclaimable, which is exactly when its output starts
        reaching peers — and when the ACKs withheld from batches that
        landed early are released, here rather than at any tick."""
        send_frame(self._control, MSG_MAPS_DONE, {"rank": self.rank})
        self._posted_event.set()
        self._release_withheld()

    def report(self, output: Any, stats: Any, error: Optional[str]) -> None:
        """Ship the rank's RESULT — or, with ``error`` (a traceback),
        its ERROR — frame to the coordinator.

        The RESULT frame pickles stats and obs only; the output follows
        it on the control socket as one codec batch of 0 or 1 parts, so
        it streams through the frame bound at any size."""
        if error is not None:
            send_frame(
                self._control,
                MSG_ERROR,
                {"rank": self.rank, "traceback": error, "stats": stats},
            )
            return
        # One frame per batch, and drive_rank reports only once every
        # peer's batch is ACKed.
        stats.shuffle_frames_sent = self.n_workers - 1
        send_frame(
            self._control,
            MSG_RESULT,
            {"rank": self.rank, "stats": stats, "obs": self.obs.export()},
        )
        send_batch(
            self._control, self.rank, [] if output is None else [output],
            epoch=self.epoch,
        )

    # -- data plane: the all-to-all exchange -------------------------------
    def _send_batch(
        self,
        dest: int,
        parts: Sequence[Any],
        chunk_ids: Optional[Sequence[int]] = None,
        *,
        confirm: bool = True,
    ) -> None:
        """Deliver one batch to ``dest``, confirmed, retrying until then.

        A send is only *delivered* when the receiver's BATCH_ACK comes
        back — bytes accepted into a dead peer's kernel buffers are
        not.  Any failure (refused connect while a replacement rank is
        still rebinding its predecessor's port, a reset when the peer
        died mid-receive, an unacknowledged batch) reconnects and
        resends the whole batch until the deadline.  Receivers
        deduplicate by source rank, so a batch that was delivered but
        whose ACK was lost is simply dropped on the resend.
        """
        deadline = time.monotonic() + self.timeout_seconds
        obs = self.obs
        attempt = 0
        backoff = _RESEND_BACKOFF_SECONDS
        while True:
            attempt += 1
            if attempt > 1:
                # The previous attempt died unconfirmed; the whole
                # batch goes again (receivers dedup by source rank).
                obs.tracer.event("batch_resend", rank=self.rank, dest=dest,
                                 attempt=attempt)
                obs.metrics.counter("batch_resends").inc()
            s0 = time.time()
            try:
                with set_nodelay(socket.create_connection(
                    self.peers[dest], timeout=self.timeout_seconds
                )) as sock:
                    if sock.getsockname() == sock.getpeername():
                        # Loopback self-connect: retrying into a dead
                        # peer's freed port can TCP-simultaneous-open
                        # onto itself, which both fakes a connection
                        # and blocks the replacement rank from
                        # rebinding that port.  Abort and back off.
                        raise OSError("self-connected to own ephemeral port")
                    sock.settimeout(self.timeout_seconds)
                    if self.auth_key is not None:
                        answer_challenge(sock, self.auth_key)
                    sent = send_batch(
                        sock,
                        self.rank,
                        parts,
                        chunk_ids=chunk_ids,
                        epoch=self.epoch,
                    )
                    if confirm:
                        recv_raw_frame(sock, expect=MSG_BATCH_ACK)
                break
            except (OSError, FabricError):
                if not confirm or time.monotonic() + backoff > deadline:
                    raise
                # A replacement rank rebinds its predecessor's port
                # within milliseconds of its spawn: retry soon, then
                # back off towards the cap.
                time.sleep(backoff)
                backoff = min(2 * backoff, _RESEND_BACKOFF_CAP_SECONDS)
        if obs.enabled:
            s1 = time.time()
            obs.tracer.add_span("shuffle_send", s0, s1, rank=self.rank,
                                dest=dest)
            obs.metrics.histogram("shuffle_batch_s").observe(s1 - s0)
            obs.metrics.histogram(
                "shuffle_batch_bytes", bounds=BYTES_BUCKETS
            ).observe(sent)

    def start_inbox(self) -> None:
        """Begin accepting inbound shuffle batches in the background.

        :meth:`open` starts the inbox *before* the map loop: a peer
        that finishes mapping early streams its batch into this rank
        while it is still mapping, so the exchange afterwards only
        waits for genuinely late data — the early-reduce overlap.
        Idempotent; :meth:`recv_all` starts it lazily for direct
        callers.

        ACK discipline: a batch that arrives before this rank has
        posted MAPS_DONE is received and buffered, but its BATCH_ACK is
        *withheld* until the rank posts.  An ACK confirms delivery, and
        a rank that dies mid-map must look undelivered-to — recovery
        respawns it and reclaims exactly its un-posted map phase, so
        its senders must resend to the replacement incarnation.  An
        early ACK would let a batch vanish with the dead process.  The
        withheld connections belong to the endpoint, not the thread:
        :meth:`mark_posted` itself releases them, so ACK-implies-posted
        costs the sender no wait beyond the post, and the thread is
        free to exit the moment every expected batch is in.
        """
        if self._inbox_thread is not None:
            return
        assert self.n_workers is not None, "inbox before connect()"
        expected = self.n_workers - 1
        self._inbox_thread = threading.Thread(
            target=self._inbox_loop, args=(expected,),
            name=f"gpmr-inbox-{self.rank}", daemon=True,
        )
        self._inbox_thread.start()

    def _ack(self, conn: socket.socket) -> None:
        """Confirm one received batch and hang up."""
        try:
            send_raw_frame(conn, MSG_BATCH_ACK, b"")
        except (OSError, FabricError):
            pass  # sender abandoned this attempt and resends; dedup covers it
        try:
            conn.close()
        except OSError:
            pass

    def _release_withheld(self) -> None:
        """ACK every batch that landed before this rank posted.

        Callers raise the flag the inbox thread reads under the lock
        (posted, or stop) *before* calling, so a batch landing
        concurrently is either swapped out here or ACKed by the thread.
        """
        with self._inbox_cond:
            held, self._withheld = self._withheld, []
        for conn in held:
            self._ack(conn)

    def _inbox_loop(self, expected: int) -> None:
        """Accept, dedup, and buffer inbound batches until all arrive.

        With an ``auth_key`` every connection must pass the HMAC
        handshake before a byte of its batch is read, so on a keyed
        fabric only a keyed peer can fill a source rank's slot.  Every
        fully received batch is confirmed with BATCH_ACK — at once when
        this rank has posted, else by :meth:`mark_posted` (see
        :meth:`start_inbox`); a second batch from a source that already
        delivered (its ACK got lost and the sender resent) is
        acknowledged and dropped by the dedup on source rank.  Each
        landed batch notifies :meth:`recv_all`.
        """
        try:
            while not self._inbox_stop.is_set():
                with self._inbox_cond:
                    if len(self._inbox_have) >= expected:
                        break
                try:
                    conn, _addr = self._shuffle_listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed; shutdown path
                try:
                    set_nodelay(conn)
                    if self.auth_key is not None:
                        # The coordinator's handshake bound: one silent
                        # client cannot hold the inbox for a deadline.
                        conn.settimeout(min(5.0, self.timeout_seconds))
                        deliver_challenge(conn, self.auth_key)
                    conn.settimeout(self.timeout_seconds)
                    src, parts, tags = recv_batch(conn, epoch=self.epoch)
                except ProtocolVersionError:
                    conn.close()
                    raise  # a version-skewed peer is a real failure
                except (ProtocolError, AuthenticationError, PeerDisconnected,
                        socket.timeout, OSError):
                    # A stray, unauthenticated or abandoned connection,
                    # or a batch of another run: drop it uncounted.
                    conn.close()
                    continue
                with self._inbox_cond:
                    if int(src) not in self._inbox_have:
                        self._inbox_have.add(int(src))
                        self._inbox_batches.append((int(src), parts, tags))
                        self._inbox_cond.notify_all()
                    # close() owes parked senders the same release.
                    withhold = not (
                        self._posted_event.is_set() or self._inbox_stop.is_set()
                    )
                    if withhold:
                        self._withheld.append(conn)
                if not withhold:
                    self._ack(conn)
        except BaseException as exc:
            with self._inbox_cond:
                self._inbox_error = exc
                self._inbox_cond.notify_all()

    def send(
        self,
        dest: int,
        parts: Sequence[Any],
        chunk_ids: Optional[Sequence[int]] = None,
    ) -> None:
        """Deliver one batch to ``dest`` from the rank's own thread.

        The inbox thread, started before the map, drains inbound
        batches meanwhile, so a send never waits on this rank's own
        receives.
        """
        self._send_batch(dest, parts, chunk_ids)

    def unblock(self, dest: int) -> None:
        """Best-effort empty batch so ``dest`` stops waiting on this
        (failing) rank instead of running out its shuffle deadline."""
        self._send_batch(dest, [], confirm=False)

    def recv_all(self) -> List[Tuple[int, List[Any], Optional[List[int]]]]:
        """Wait out the exchange: every peer's ``(source_rank, parts,
        chunk_ids)`` batch, in arrival order.

        Inbound batches are collected by the background inbox (possibly
        running since before this rank's map phase ended — see
        :meth:`start_inbox`).  This method blocks on the inbox's
        condition — woken by each landed batch and by an inbox failure,
        bounded by the ``timeout_seconds`` deadline — so it returns as
        the last batch lands.
        """
        assert self.n_workers is not None, "exchange before connect()"
        self.start_inbox()
        deadline = time.monotonic() + self.timeout_seconds
        with self._inbox_cond:
            while len(self._inbox_have) < self.n_workers - 1:
                if self._inbox_error is not None:
                    raise FabricError(
                        f"rank {self.rank} inbox failed: {self._inbox_error}"
                    ) from self._inbox_error
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise FabricError(
                        f"rank {self.rank} shuffle timed out after "
                        f"{self.timeout_seconds}s; received batches only from "
                        f"{sorted(self._inbox_have | {self.rank})}"
                    )
                self._inbox_cond.wait(remaining)
        # The last batch's ACK leaves on the inbox thread after the
        # notify; see it out, or a fast reduce could exit the process
        # under it and strand the sender in resends.
        self._inbox_thread.join(timeout=self.timeout_seconds)
        with self._inbox_cond:
            return list(self._inbox_batches)

    # -- full worker flow --------------------------------------------------
    def open(self) -> Any:
        """The link's handshake: unpack the ASSIGN :meth:`connect`
        received and start the inbox.  Returns the job.

        Chunks are not in the frame — the rank pulls them via
        :meth:`request_chunk`, through the puller built here, which
        keeps one CHUNK_REQ ahead of the chunk it maps; ASSIGN carries
        the rank's scripted fault injection.
        """
        # Imported here: repro.exec imports repro.fabric (the cluster
        # backend), so a module-level import would be circular.
        from ..exec.rank import GrantPuller

        assign = self._assignment
        self.epoch = int(assign["epoch"])
        if assign.get("obs"):
            self.obs = Observability()
        fault = assign.get("fault") or {}
        self._puller = GrantPuller(
            self.rank,
            self._send_chunk_request,
            self._recv_chunk_answer,
            stall_seconds=float(fault.get("stall_seconds", 0.0)),
            kill_at_chunk=fault.get("kill_at_chunk"),
            obs=self.obs,
        )
        # The job travels as a nested blob, pickled once for all ranks.
        job = pickle.loads(assign["job_pickle"])
        # Accept peers' batches concurrently with our own map phase
        # (early-exchange overlap; ACKs withheld until we post).
        self.start_inbox()
        return job

    def serve(self) -> None:
        """Join the fabric and run the shared rank loop over this link
        for every run the coordinator assigns, until it hangs up."""
        from ..exec.rank import drive_rank

        self.connect()
        while True:
            drive_rank(self)
            if not self._next_assignment():
                return

    def close(self) -> None:
        self._inbox_stop.set()
        # Senders still parked on a withheld ACK are let go rather than
        # left to run out their deadlines against a closed rank.
        self._release_withheld()
        if self._control is not None:
            try:
                self._control.close()
            except OSError:
                pass
            self._control = None
        try:
            self._shuffle_listener.close()
        except OSError:
            pass

    def __enter__(self) -> "RankEndpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_rank(
    rank: int,
    coordinator: Tuple[str, int],
    listen_host: str = "127.0.0.1",
    advertise_host: Optional[str] = None,
    timeout_seconds: float = 120.0,
    listen_port: int = 0,
    auth_key: Optional[bytes] = None,
) -> None:
    """Join the fabric as ``rank`` and serve jobs until the coordinator
    hangs up (its executor closed).

    The in-process entry point behind ``python -m repro.fabric.launch``
    and the process target :class:`repro.exec.cluster.ClusterExecutor`
    spawns for local ranks.  A replacement for a rank that died mid-run
    passes the predecessor's exact shuffle ``listen_port`` (so the peer
    directory every live rank already holds stays valid).
    """
    with RankEndpoint(
        rank,
        coordinator,
        listen_host=listen_host,
        advertise_host=advertise_host,
        timeout_seconds=timeout_seconds,
        listen_port=listen_port,
        auth_key=auth_key,
    ) as endpoint:
        endpoint.serve()

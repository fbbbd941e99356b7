"""Driver-side control plane of the cluster fabric.

The :class:`Coordinator` owns one TCP listening socket and serves every
run of one executor, from its first ``run()`` to ``close()``.  Rank
processes (local or on other hosts) dial in once, and each rank's
control conversation is ``HELLO``, then per run ``ASSIGN`` ->
(``CHUNK_REQ`` / ``CHUNK_GRANT``)* -> ``MAPS_DONE`` -> ``RESULT`` +
output batch or ``ERROR``, over the framed wire protocol in
:mod:`repro.fabric.wire`.  A run has three phases:

1. **Registration** — each rank sends ``HELLO`` carrying its rank id
   and the address of its own shuffle listener.  Nothing answers it
   yet.  Registration tolerates stragglers: ranks may dial in in any
   order, any time before the deadline.  A later run registers only
   ranks that are missing (a dead idle rank's replacement); with every
   rank connected it is a no-op.
2. **Assignment** — once every rank is in, ``ASSIGN`` ships the
   pickled job, the run's epoch and the full peer directory (rank ->
   shuffle address); the frame bound is a protocol constant.  The first
   one is the rank's reply to its HELLO; a later one is the next run on
   the same connection.  Chunks are *not* in the frame: distribution is
   pull-based (phase 3).
3. **Chunk service + result collection** — the coordinator multiplexes
   over all rank connections, answering each ``CHUNK_REQ`` from the
   driver's :class:`~repro.core.scheduler.ChunkService` with a
   ``CHUNK_GRANT`` (chunk + victim rank) or ``CHUNKS_DONE``; an idle
   rank — spawned or externally launched — thereby steals chunks from
   the longest queue at runtime.  Each rank ends with exactly one
   ``RESULT`` frame (stats and obs, pickled) followed by its output as
   one codec batch of 0 or 1 parts (:mod:`repro.fabric.stream`), or
   with one ``ERROR`` frame (remote traceback).
   A HELLO here is admitted only for a rank whose predecessor died and
   was retired by recovery; it gets its ASSIGN at once.

Nothing lines the ranks up before work: a rank assigned early just
starts pulling, and its shuffle batch to a peer still unpacking its
ASSIGN waits in that peer's listen backlog (and the sender resends
until a BATCH_ACK confirms it).  Between runs the connections idle;
:meth:`Coordinator.close` shuts them down, and a rank waiting for its
next ASSIGN reads that EOF as the end of its life.

Peer failure is detected, never waited out: a rank connection that hits
EOF before its result arrived raises :class:`RankFailure` immediately
(a dead process's kernel closes its sockets), and every phase enforces
a deadline, raising :class:`ClusterTimeout` with the laggards named.
"""

from __future__ import annotations

import pickle
import selectors
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .stream import recv_batch
from .wire import (
    MSG_ASSIGN,
    MSG_CHUNK_GRANT,
    MSG_CHUNK_REQ,
    MSG_CHUNKS_DONE,
    MSG_ERROR,
    MSG_HELLO,
    MSG_MAPS_DONE,
    MSG_RESULT,
    AuthenticationError,
    FabricError,
    PeerDisconnected,
    ProtocolError,
    ProtocolVersionError,
    deliver_challenge,
    recv_frame,
    send_frame,
    send_versioned_error,
    set_nodelay,
)
from ..obs import NULL_OBS

__all__ = ["Coordinator", "ClusterTimeout", "RankFailure"]

#: How often blocking phases wake up to re-check deadlines/liveness.
_POLL_SECONDS = 0.2


class ClusterTimeout(FabricError, TimeoutError):
    """A control-plane phase missed its deadline; names the laggards.

    Also a :class:`TimeoutError`, so ``except TimeoutError`` catches a
    cluster-backend deadline exactly like a local-backend one.
    """


class RankFailure(FabricError):
    """A rank failed; carries the rank id and what is known about why."""

    def __init__(self, rank: int, detail: str) -> None:
        super().__init__(f"rank {rank} failed:\n{detail}")
        self.rank = rank
        self.detail = detail


def _parse_hello(hello: Any) -> Optional[Tuple[int, Tuple[str, int]]]:
    """``(rank, shuffle_address)`` from a HELLO payload, or None when
    it is not ``{"rank": int, "shuffle_address": (host, port)}``."""
    if not isinstance(hello, dict):
        return None
    rank, address = hello.get("rank"), hello.get("shuffle_address")
    if (type(rank) is not int or not isinstance(address, (tuple, list))
            or len(address) != 2):
        return None
    return rank, tuple(address)


class Coordinator:
    """Rank registry, broadcaster, chunk server and result sink for the
    runs of one executor.

    ``liveness_probe`` (optional) is called on every poll tick of every
    blocking phase; it should raise if it knows a rank already died
    (e.g. the launching executor watching its child processes), turning
    a would-be timeout into an immediate, attributed failure.  The
    executor may swap it, and :attr:`obs`, between runs.
    """

    def __init__(
        self,
        n_workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout_seconds: float = 120.0,
        liveness_probe: Optional[Callable[[], None]] = None,
        obs: Optional[Any] = None,
        auth_key: Optional[bytes] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self.timeout_seconds = float(timeout_seconds)
        self.liveness_probe = liveness_probe
        #: when set, every accepted connection (registration and
        #: mid-run replacement alike) must pass the HMAC challenge-response
        #: handshake before its first pickled frame is read
        self.auth_key = auth_key
        #: driver-side observability bundle; when set, ASSIGN frames
        #: arm rank-side tracing and RESULT-frame export payloads are
        #: stashed in :attr:`obs_payloads` for the executor to absorb
        self.obs = obs if obs is not None else NULL_OBS
        #: rank -> the export payload its RESULT frame carried
        self.obs_payloads: Dict[int, Any] = {}
        self._listener = socket.create_server(
            (host, port), backlog=max(self.n_workers, 8)
        )
        self._listener.settimeout(_POLL_SECONDS)
        self.host, self.port = self._listener.getsockname()[:2]
        #: rank -> control connection, filled by :meth:`wait_for_ranks`
        self._conns: Dict[int, socket.socket] = {}
        #: rank -> advertised shuffle (host, port)
        self.shuffle_peers: Dict[int, Tuple[str, int]] = {}
        #: the broadcast job blob, kept so a replacement rank can be
        #: re-assigned mid-run (set by :meth:`broadcast_assignments`)
        self._job_blob: Optional[bytes] = None
        self._fault_plan: Optional[Any] = None
        #: the current run's number, 1 for the first; ASSIGN carries it
        #: and ranks stamp it on every shuffle batch
        self.epoch = 0

    # -- lifecycle ---------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def close(self) -> None:
        """Hang up on every rank, then stop listening."""
        for rank in list(self._conns):
            self.retire(rank)
        try:
            self._listener.close()
        except OSError:
            pass

    def retire(self, rank: int) -> None:
        """Hang up on ``rank`` and forget it, so its next HELLO (a
        replacement's) is admitted at registration.

        ``shutdown`` comes before ``close``: a rank process forked
        while this connection was open holds a copy of it, and only
        the shutdown sends the EOF a waiting rank exits on.
        """
        conn = self._conns.pop(rank, None)
        if conn is None:
            return
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the peer is already gone
        conn.close()

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- phase helpers -----------------------------------------------------
    def _deadline(self) -> float:
        return time.monotonic() + self.timeout_seconds

    def _tick(self, deadline: float, phase: str, waiting_on: Sequence[int]) -> None:
        if self.liveness_probe is not None:
            self.liveness_probe()
        if time.monotonic() > deadline:
            raise ClusterTimeout(
                f"{phase} timed out after {self.timeout_seconds}s; "
                f"still waiting on rank(s) {sorted(waiting_on)}"
            )

    def _authenticate(self, conn: socket.socket) -> bool:
        """Run the HMAC handshake on a fresh connection (when keyed).

        True means the peer may proceed to pickled frames.  A peer
        with the wrong key (or no auth at all) is refused and dropped
        — False, keep listening; the handshake never aborts the run
        the way a misconfiguration does.  The exception is version
        skew: a legacy client gets a versioned refusal frame and the
        error propagates, matching the registration path's existing
        fail-fast contract.
        """
        if self.auth_key is None:
            return True
        try:
            deliver_challenge(conn, self.auth_key)
            return True
        except ProtocolVersionError as exc:
            send_versioned_error(conn, str(exc), peer_version=exc.peer_version)
            conn.close()
            raise
        except (AuthenticationError, ProtocolError, PeerDisconnected,
                socket.timeout, OSError):
            conn.close()
            return False

    # -- admission ----------------------------------------------------------
    def _admit(self, sel: Optional[selectors.BaseSelector] = None) -> None:
        """Accept one connection and admit it as a rank, or drop it.

        Registration and mid-run replacement share the whole handshake:
        accept, ``TCP_NODELAY``, HMAC, then parse and check the HELLO.
        A connection that is not a well-formed HELLO — a port scanner,
        a health check, a half-open socket, a payload that is not
        ``{"rank": int, "shuffle_address": (host, port)}`` — is dropped
        and listening continues; only protocol version skew aborts.
        The handshake gets a short per-connection timeout so one silent
        client cannot serially consume the whole deadline.

        Only the policy depends on the phase.  During registration
        (``sel`` is None) a duplicate or out-of-range rank is a
        misconfiguration and raises :class:`FabricError`.  Mid-run
        (``sel`` is the result loop's selector) only a rank holding no
        connection — one :meth:`_recover_rank` retired — is admitted:
        it gets its ASSIGN at once and joins the selector; any other
        HELLO is refused.
        """
        try:
            conn, _addr = self._listener.accept()
        except OSError:  # includes the poll tick's socket.timeout
            return
        set_nodelay(conn)
        conn.settimeout(min(5.0, self.timeout_seconds))
        if not self._authenticate(conn):
            return
        try:
            _, hello = recv_frame(conn, expect=MSG_HELLO)
        except ProtocolVersionError:
            conn.close()
            raise
        except (ProtocolError, PeerDisconnected, socket.timeout):
            hello = None
        parsed = _parse_hello(hello)
        if parsed is None:
            conn.close()  # not a rank; keep listening
            return
        rank, address = parsed
        if not 0 <= rank < self.n_workers or rank in self._conns:
            conn.close()
            if sel is not None:
                return  # mid-run, only a retired rank is admitted
            raise FabricError(
                f"duplicate registration for rank {rank}"
                if rank in self._conns else
                f"HELLO from out-of-range rank {rank} "
                f"(cluster has {self.n_workers} ranks)"
            )
        conn.settimeout(self.timeout_seconds)
        self._conns[rank] = conn
        self.shuffle_peers[rank] = address
        if sel is None:
            return
        self.obs.tracer.event("rejoin", rank=rank)
        self._send_assignment(rank, replacement=True)
        sel.register(conn, selectors.EVENT_READ, rank)

    # -- 1. registration ---------------------------------------------------
    def wait_for_ranks(self) -> None:
        """Admit HELLOs until every rank 0..n-1 has registered (a no-op
        once all are connected)."""
        deadline = self._deadline()
        while len(self._conns) < self.n_workers:
            missing = [r for r in range(self.n_workers) if r not in self._conns]
            self._tick(deadline, "rank registration", missing)
            self._admit()

    # -- 2. assignment -----------------------------------------------------
    def broadcast_assignments(
        self, job: Any, fault_plan: Optional[Any] = None
    ) -> None:
        """Start the next run: ASSIGN to every rank the job, the run's
        epoch and the peer directory — metadata only.

        The job (potentially megabytes of mapper state) is pickled
        *once* and embedded as a blob in every rank's ASSIGN frame (and
        kept, so a replacement rank admitted mid-run can be assigned
        without the driver's involvement).  Chunks do **not** travel
        here: ranks pull them one at a time through
        CHUNK_REQ/CHUNK_GRANT during phase 3.  With a ``fault_plan``,
        each rank's ASSIGN carries its scripted kill/stall injection.
        """
        self._job_blob = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        self._fault_plan = fault_plan
        self.epoch += 1
        for rank in range(self.n_workers):
            try:
                self._send_assignment(rank)
            except PeerDisconnected as exc:
                raise RankFailure(
                    rank, f"disconnected before receiving its assignment: {exc}"
                ) from exc

    def _send_assignment(self, rank: int, replacement: bool = False) -> None:
        """ASSIGN ``rank``: the job blob, the current peer directory and
        the rank's scripted faults."""
        fault: Dict[str, Any] = {}
        if self._fault_plan is not None:
            # A replacement incarnation never re-runs its predecessor's
            # scripted kill — it exists to finish the reclaimed work.
            # A stall is a rank property (a slow host stays slow) and
            # survives respawn.
            kill_at = self._fault_plan.kill_for(rank)
            stall = self._fault_plan.stall_for(rank)
            if kill_at is not None and not replacement:
                fault["kill_at_chunk"] = kill_at
            if stall:
                fault["stall_seconds"] = stall
        payload = {
            "job_pickle": self._job_blob,
            "epoch": self.epoch,
            "peers": dict(self.shuffle_peers),
            "n_workers": self.n_workers,
            "fault": fault,
            "obs": self.obs.enabled,
        }
        send_frame(self._conns[rank], MSG_ASSIGN, payload)

    # -- 3. chunk service + result collection --------------------------------
    def collect_results(
        self,
        chunk_service: Any,
        respawner: Optional[Callable[[int, int], bool]] = None,
    ) -> List[Tuple[int, Any, Any]]:
        """Serve chunk pulls and gather one result per rank: its RESULT
        frame, then the output batch read at once behind it.

        While results are outstanding the coordinator answers every
        ``CHUNK_REQ`` from ``chunk_service`` (the driver's
        :class:`~repro.core.scheduler.ChunkService`): the rank's next
        chunk rides back as a ``CHUNK_GRANT`` carrying the victim rank
        (so the worker can count its steals), or ``CHUNKS_DONE`` once
        the service has nothing left for it.  A ``MAPS_DONE`` frame marks the rank's map phase
        posted at the service.  Returns ``(rank, output, stats)``
        tuples in rank order.

        The first ERROR frame raises :class:`RankFailure` carrying the
        remote traceback *immediately*, and so does an output batch cut
        short or garbled.  A connection that drops before
        reporting normally raises :class:`RankFailure` too — but with a
        ``respawner`` attached, a rank that died *before posting its
        map output* is recovered instead: its connection is retired,
        its un-posted grants are reclaimed into the pool, and
        ``respawner(rank, shuffle_port)`` launches a replacement whose
        HELLO the listener admits mid-run (see :meth:`_admit`); it
        pulls the reclaimed work.
        """
        results: Dict[int, Tuple[int, Any, Any]] = {}
        self.obs_payloads = {}
        deadline = self._deadline()
        with selectors.DefaultSelector() as sel:
            for rank, conn in self._conns.items():
                sel.register(conn, selectors.EVENT_READ, rank)
            # The listener stays live so a replacement rank can join
            # between grant rounds (registered with data=None).
            sel.register(self._listener, selectors.EVENT_READ, None)
            while len(results) < self.n_workers:
                waiting = [
                    r for r in range(self.n_workers) if r not in results
                ]
                self._tick(deadline, "result collection", waiting)
                for key, _ in sel.select(timeout=_POLL_SECONDS):
                    if key.data is None:
                        self._admit(sel)
                        continue
                    rank = key.data
                    if rank in results:
                        continue
                    try:
                        msg_type, payload = recv_frame(key.fileobj)
                    except PeerDisconnected as exc:
                        if self._recover_rank(
                            rank, sel, key.fileobj, chunk_service, respawner
                        ):
                            continue
                        raise RankFailure(
                            rank,
                            f"worker process disconnected before reporting "
                            f"a result ({exc})",
                        ) from exc
                    if msg_type == MSG_CHUNK_REQ:
                        try:
                            self._answer_chunk_request(rank, chunk_service)
                        except RankFailure:
                            # Death on the send side of a grant: the
                            # grant stayed outstanding, so recovery
                            # reclaims it with the rest.
                            if not self._recover_rank(
                                rank, sel, key.fileobj, chunk_service,
                                respawner,
                            ):
                                raise
                        continue
                    if msg_type == MSG_MAPS_DONE:
                        chunk_service.mark_posted(rank)
                        continue
                    if msg_type == MSG_RESULT:
                        results[rank] = (
                            rank, self._recv_output(rank, key.fileobj),
                            payload["stats"],
                        )
                        # Kept out of the triples so existing callers'
                        # unpacking stays valid; executors absorb this.
                        self.obs_payloads[rank] = payload.get("obs")
                    elif msg_type == MSG_ERROR:
                        raise RankFailure(rank, payload["traceback"])
                    else:
                        raise FabricError(
                            f"rank {rank} sent unexpected frame type {msg_type} "
                            "during result collection"
                        )
                    sel.unregister(key.fileobj)
        # The run is over; only a replacement rank needed the job blob.
        self._job_blob = None
        return [results[r] for r in sorted(results)]

    def _recv_output(self, rank: int, conn: socket.socket) -> Any:
        """Read the codec batch of 0 or 1 parts that follows ``rank``'s
        RESULT frame: its output, or None.  A rank that dies or
        garbles the stream partway through is a :class:`RankFailure`
        (it has posted, so there is nothing to recover).  The trip home is
        the driver's ``result_recv`` span, attributed to ``rank``."""
        try:
            with self.obs.tracer.span("result_recv", rank=rank):
                _src, parts, _tags = recv_batch(conn)
        except (FabricError, OSError) as exc:
            raise RankFailure(
                rank, f"result output did not arrive intact: {exc}"
            ) from exc
        if len(parts) > 1:
            raise RankFailure(
                rank, f"result output carries {len(parts)} parts, not 0 or 1"
            )
        return parts[0] if parts else None

    # -- fault tolerance ------------------------------------------------------
    def _recover_rank(
        self,
        rank: int,
        sel: selectors.BaseSelector,
        conn: socket.socket,
        chunk_service: Any,
        respawner: Optional[Callable[[int, int], bool]],
    ) -> bool:
        """Try to survive ``rank``'s death; True if a replacement is due.

        Recovery needs a respawner, a chunk service that still holds
        the rank's whole un-posted map phase (nothing shipped — the
        unit of loss), and respawn budget (the respawner's call).  The
        replacement is told to bind the dead rank's exact shuffle port,
        so the peer directory every surviving rank already holds stays
        valid — pending batches re-route to the replacement by retry.
        """
        if respawner is None or not chunk_service.can_recover(rank):
            return False
        try:
            sel.unregister(conn)
        except (KeyError, ValueError):
            pass
        self.retire(rank)
        self.obs.tracer.event("rank_dead", rank=rank)
        if not respawner(rank, self.shuffle_peers[rank][1]):
            return False  # respawn budget exhausted
        chunk_service.reclaim(rank)
        self.obs.tracer.event("respawn", rank=rank)
        self.obs.metrics.counter("respawns").inc()
        return True

    def _answer_chunk_request(self, rank: int, chunk_service: Any) -> None:
        """Reply to one rank's CHUNK_REQ with a grant or done."""
        assignment = chunk_service.request(rank)
        if assignment is None:
            msg_type, payload = MSG_CHUNKS_DONE, {}
        else:
            msg_type = MSG_CHUNK_GRANT
            payload = {"chunk": assignment.chunk, "victim": assignment.victim}
        try:
            send_frame(self._conns[rank], msg_type, payload)
        except PeerDisconnected as exc:
            raise RankFailure(
                rank, f"disconnected while being granted a chunk: {exc}"
            ) from exc

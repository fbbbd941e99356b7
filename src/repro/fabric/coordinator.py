"""Driver-side control plane of the cluster fabric.

The :class:`Coordinator` owns one TCP listening socket.  Rank processes
(local or on other hosts) dial in and the run proceeds through four
control-plane phases, all over the framed wire protocol in
:mod:`repro.fabric.wire`:

1. **Registration** — each rank sends ``HELLO`` carrying its rank id
   and the address of its own shuffle listener; the coordinator answers
   ``WELCOME``.  Registration tolerates stragglers: ranks may dial in
   in any order, any time before the deadline.
2. **Assignment broadcast** — ``ASSIGN`` ships the pickled job and the
   full peer directory (rank -> shuffle address).  Chunks are *not* in
   the frame: distribution is pull-based (phase 4).
3. **Barrier** — every rank reports ``BARRIER``; once all have arrived
   the coordinator broadcasts ``RESUME``.  This pins a common start
   line so per-rank wall-clock stage timings are comparable.
4. **Chunk service + result collection** — the coordinator multiplexes
   over all rank connections, answering each ``CHUNK_REQ`` from the
   driver's :class:`~repro.core.scheduler.ChunkService` with a
   ``CHUNK_GRANT`` (chunk + victim rank) or ``CHUNKS_DONE``; an idle
   rank — spawned or externally launched — thereby steals chunks from
   the longest queue at runtime.  Each rank ends with exactly one
   ``RESULT`` (output + stats) or ``ERROR`` (remote traceback) frame.

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

from .wire import (
    MSG_ASSIGN,
    MSG_BARRIER,
    MSG_CHUNK_GRANT,
    MSG_CHUNK_REQ,
    MSG_CHUNKS_DONE,
    MSG_ERROR,
    MSG_HELLO,
    MSG_MAPS_DONE,
    MSG_RESULT,
    MSG_RESUME,
    MSG_WELCOME,
    DEFAULT_MAX_FRAME_BYTES,
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
from ..core.scheduler import DEFAULT_PREFETCH_WINDOW, RETRY
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


class Coordinator:
    """Rank registry, broadcaster, barrier, and result sink for one job.

    ``liveness_probe`` (optional) is called on every poll tick of every
    blocking phase; it should raise if it knows a rank already died
    (e.g. the launching executor watching its child processes), turning
    a would-be timeout into an immediate, attributed failure.
    """

    def __init__(
        self,
        n_workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout_seconds: float = 120.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        liveness_probe: Optional[Callable[[], None]] = None,
        obs: Optional[Any] = None,
        auth_key: Optional[bytes] = None,
        prefetch_window: int = DEFAULT_PREFETCH_WINDOW,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self.timeout_seconds = float(timeout_seconds)
        self.max_frame_bytes = int(max_frame_bytes)
        self.liveness_probe = liveness_probe
        #: grant pipelining depth shipped to every rank via ASSIGN:
        #: ranks keep up to ``1 + prefetch_window`` CHUNK_REQ frames in
        #: flight so the next grant overlaps the current chunk's map
        self.prefetch_window = max(0, int(prefetch_window))
        #: when set, every accepted connection (registration and
        #: mid-run rejoin alike) must pass the HMAC challenge-response
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

    # -- lifecycle ---------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def close(self) -> None:
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._conns.clear()
        try:
            self._listener.close()
        except OSError:
            pass

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
            deliver_challenge(
                conn, self.auth_key, max_frame_bytes=self.max_frame_bytes
            )
            return True
        except ProtocolVersionError as exc:
            send_versioned_error(
                conn, str(exc), peer_version=exc.peer_version,
                max_frame_bytes=self.max_frame_bytes,
            )
            conn.close()
            raise
        except (AuthenticationError, ProtocolError, PeerDisconnected,
                socket.timeout, OSError):
            conn.close()
            return False

    # -- 1. registration ---------------------------------------------------
    def wait_for_ranks(self) -> None:
        """Accept HELLOs until every rank 0..n-1 has registered.

        A connection that is not a well-formed HELLO — a port scanner,
        a health check, a half-open socket — is dropped and accepting
        continues; only real misconfigurations (protocol version skew,
        duplicate or out-of-range ranks) abort the run.  The handshake
        itself gets a short per-connection timeout so one silent client
        cannot serially consume the whole registration deadline.
        """
        deadline = self._deadline()
        while len(self._conns) < self.n_workers:
            missing = [r for r in range(self.n_workers) if r not in self._conns]
            self._tick(deadline, "rank registration", missing)
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            set_nodelay(conn)
            conn.settimeout(min(5.0, self.timeout_seconds))
            if not self._authenticate(conn):
                continue
            try:
                _, hello = recv_frame(
                    conn, max_frame_bytes=self.max_frame_bytes, expect=MSG_HELLO
                )
            except ProtocolVersionError:
                conn.close()
                raise
            except (ProtocolError, PeerDisconnected, socket.timeout):
                conn.close()  # not a rank; keep listening
                continue
            conn.settimeout(self.timeout_seconds)
            rank = int(hello["rank"])
            if not 0 <= rank < self.n_workers:
                conn.close()
                raise FabricError(
                    f"HELLO from out-of-range rank {rank} "
                    f"(cluster has {self.n_workers} ranks)"
                )
            if rank in self._conns:
                conn.close()
                raise FabricError(f"duplicate registration for rank {rank}")
            self._conns[rank] = conn
            self.shuffle_peers[rank] = tuple(hello["shuffle_address"])
            send_frame(
                conn,
                MSG_WELCOME,
                {"n_workers": self.n_workers,
                 "max_frame_bytes": self.max_frame_bytes},
                max_frame_bytes=self.max_frame_bytes,
            )

    # -- 2. assignment broadcast -------------------------------------------
    def broadcast_assignments(
        self, job: Any, fault_plan: Optional[Any] = None
    ) -> None:
        """Ship the job and the peer directory — metadata only.

        The job (potentially megabytes of mapper state) is pickled
        *once* and embedded as a blob in every rank's ASSIGN frame (and
        kept, so a replacement rank rejoining mid-run can be
        re-assigned without the driver's involvement).  Chunks do
        **not** travel here: ranks pull them one at a time through
        CHUNK_REQ/CHUNK_GRANT during phase 4.  With a ``fault_plan``,
        each rank's ASSIGN carries its scripted kill/stall injection.
        """
        self._job_blob = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        self._fault_plan = fault_plan
        peers = dict(self.shuffle_peers)
        for rank in range(self.n_workers):
            try:
                send_frame(
                    self._conns[rank],
                    MSG_ASSIGN,
                    self._assignment_payload(rank, peers, fault_plan),
                    max_frame_bytes=self.max_frame_bytes,
                )
            except PeerDisconnected as exc:
                raise RankFailure(
                    rank, f"disconnected before receiving its assignment: {exc}"
                ) from exc

    def _assignment_payload(
        self,
        rank: int,
        peers: Dict[int, Tuple[str, int]],
        fault_plan: Optional[Any],
        rejoin: bool = False,
    ) -> Dict[str, Any]:
        fault: Dict[str, Any] = {}
        if fault_plan is not None:
            # A replacement incarnation never re-runs its predecessor's
            # scripted kill — it exists to finish the reclaimed work.
            # A stall is a rank property (a slow host stays slow) and
            # survives respawn.
            kill_at = fault_plan.kill_for(rank)
            stall = fault_plan.stall_for(rank)
            if kill_at is not None and not rejoin:
                fault["kill_at_chunk"] = kill_at
            if stall:
                fault["stall_seconds"] = stall
        return {
            "job_pickle": self._job_blob,
            "peers": peers,
            "n_workers": self.n_workers,
            "fault": fault,
            "rejoin": rejoin,
            "obs": self.obs.enabled,
            "prefetch": self.prefetch_window,
        }

    # -- 3. barrier ---------------------------------------------------------
    def barrier(self, name: str = "start") -> None:
        """Wait for every rank's BARRIER frame, then broadcast RESUME."""
        arrived: set = set()
        deadline = self._deadline()
        with selectors.DefaultSelector() as sel:
            for rank, conn in self._conns.items():
                sel.register(conn, selectors.EVENT_READ, rank)
            while len(arrived) < self.n_workers:
                waiting = [r for r in self._conns if r not in arrived]
                self._tick(deadline, f"barrier {name!r}", waiting)
                for key, _ in sel.select(timeout=_POLL_SECONDS):
                    rank = key.data
                    try:
                        msg_type, payload = recv_frame(
                            key.fileobj, max_frame_bytes=self.max_frame_bytes
                        )
                    except PeerDisconnected as exc:
                        raise RankFailure(
                            rank, f"disconnected at barrier {name!r}: {exc}"
                        ) from exc
                    if msg_type == MSG_ERROR:
                        # A rank can fail before reaching the barrier
                        # (bad assignment unpickle, version skew on a
                        # remote host); surface its traceback, not a
                        # framing complaint.
                        raise RankFailure(rank, payload["traceback"])
                    if msg_type != MSG_BARRIER:
                        raise FabricError(
                            f"rank {rank} sent frame type {msg_type} "
                            f"while barrier {name!r} was pending"
                        )
                    if payload.get("name") != name:
                        raise FabricError(
                            f"rank {rank} reached barrier "
                            f"{payload.get('name')!r}, expected {name!r}"
                        )
                    arrived.add(rank)
        for rank, conn in self._conns.items():
            try:
                send_frame(conn, MSG_RESUME, {"name": name},
                           max_frame_bytes=self.max_frame_bytes)
            except PeerDisconnected as exc:
                raise RankFailure(
                    rank, f"disconnected at barrier {name!r} release: {exc}"
                ) from exc

    # -- 4. chunk service + result collection --------------------------------
    def collect_results(
        self,
        chunk_service: Optional[Any] = None,
        respawner: Optional[Callable[[int, int], bool]] = None,
    ) -> List[Tuple[int, Any, Any]]:
        """Serve chunk pulls and gather one RESULT frame per rank.

        While results are outstanding the coordinator answers every
        ``CHUNK_REQ`` from ``chunk_service`` (the driver's
        :class:`~repro.core.scheduler.ChunkService`): the rank's next
        chunk rides back as a ``CHUNK_GRANT`` carrying the victim rank
        (so the worker can count its steals), or ``CHUNKS_DONE`` once
        the service has nothing left for it (a ``retry`` flag instead
        asks the idle rank to re-poll while speculation may still free
        up work).  A ``MAPS_DONE`` frame marks the rank's map phase
        posted at the service.  Returns ``(rank, output, stats)``
        tuples in rank order.

        The first ERROR frame raises :class:`RankFailure` carrying the
        remote traceback *immediately*.  A connection that drops before
        reporting normally raises :class:`RankFailure` too — but with a
        ``respawner`` attached, a rank that died *before posting its
        map output* is recovered instead: its connection is retired,
        its un-posted grants are reclaimed into the pool, and
        ``respawner(rank, shuffle_port)`` launches a replacement which
        rejoins mid-run through the listener (its HELLO carries
        ``rejoin``) and pulls the reclaimed work.
        """
        results: Dict[int, Tuple[int, Any, Any]] = {}
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
                        self._accept_rejoin(sel)
                        continue
                    rank = key.data
                    if rank in results:
                        continue
                    try:
                        msg_type, payload = recv_frame(
                            key.fileobj, max_frame_bytes=self.max_frame_bytes
                        )
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
                        if chunk_service is not None:
                            chunk_service.mark_posted(rank)
                        continue
                    if msg_type == MSG_RESULT:
                        results[rank] = (
                            rank, payload["output"], payload["stats"]
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
        return [results[r] for r in sorted(results)]

    # -- fault tolerance ------------------------------------------------------
    def _recover_rank(
        self,
        rank: int,
        sel: selectors.BaseSelector,
        conn: socket.socket,
        chunk_service: Optional[Any],
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
        if (
            respawner is None
            or chunk_service is None
            or not chunk_service.can_recover(rank)
        ):
            return False
        try:
            sel.unregister(conn)
        except (KeyError, ValueError):
            pass
        try:
            conn.close()
        except OSError:
            pass
        self._conns.pop(rank, None)
        self.obs.tracer.event("rank_dead", rank=rank)
        if not respawner(rank, self.shuffle_peers[rank][1]):
            return False  # respawn budget exhausted
        chunk_service.reclaim(rank)
        self.obs.tracer.event("respawn", rank=rank)
        self.obs.metrics.counter("respawns").inc()
        return True

    def _accept_rejoin(self, sel: selectors.BaseSelector) -> None:
        """Admit a replacement rank's mid-run HELLO (or drop a stray).

        The handshake mirrors registration: WELCOME, then an ASSIGN
        rebuilt from the stored job blob and the *current* peer
        directory, flagged ``rejoin`` so the endpoint skips the start
        barrier and goes straight to pulling chunks.
        """
        try:
            conn, _addr = self._listener.accept()
        except (socket.timeout, OSError):
            return
        set_nodelay(conn)
        conn.settimeout(min(5.0, self.timeout_seconds))
        if not self._authenticate(conn):
            return
        try:
            _, hello = recv_frame(
                conn, max_frame_bytes=self.max_frame_bytes, expect=MSG_HELLO
            )
        except ProtocolVersionError:
            conn.close()
            raise
        except (ProtocolError, PeerDisconnected, socket.timeout):
            conn.close()  # not a rank; ignore
            return
        rank = int(hello.get("rank", -1))
        if (
            not hello.get("rejoin")
            or not 0 <= rank < self.n_workers
            or rank in self._conns
        ):
            conn.close()  # not a legitimate mid-run rejoin
            return
        if self._job_blob is None:
            conn.close()
            raise FabricError(
                f"rank {rank} tried to rejoin before any assignment broadcast"
            )
        conn.settimeout(self.timeout_seconds)
        self._conns[rank] = conn
        self.shuffle_peers[rank] = tuple(hello["shuffle_address"])
        self.obs.tracer.event("rejoin", rank=rank)
        send_frame(
            conn,
            MSG_WELCOME,
            {"n_workers": self.n_workers,
             "max_frame_bytes": self.max_frame_bytes},
            max_frame_bytes=self.max_frame_bytes,
        )
        send_frame(
            conn,
            MSG_ASSIGN,
            self._assignment_payload(
                rank, dict(self.shuffle_peers), self._fault_plan, rejoin=True
            ),
            max_frame_bytes=self.max_frame_bytes,
        )
        sel.register(conn, selectors.EVENT_READ, rank)

    def _answer_chunk_request(self, rank: int, chunk_service: Optional[Any]) -> None:
        """Reply to one rank's CHUNK_REQ with a grant, retry, or done."""
        if chunk_service is None:
            raise FabricError(
                f"rank {rank} requested a chunk but no chunk service is "
                "attached to this run"
            )
        assignment = chunk_service.request(rank)
        if assignment is None:
            msg_type, payload = MSG_CHUNKS_DONE, {}
        elif assignment is RETRY:
            msg_type, payload = MSG_CHUNKS_DONE, {"retry": True}
        else:
            msg_type = MSG_CHUNK_GRANT
            payload = {"chunk": assignment.chunk, "victim": assignment.victim}
        try:
            send_frame(
                self._conns[rank], msg_type, payload,
                max_frame_bytes=self.max_frame_bytes,
            )
        except PeerDisconnected as exc:
            raise RankFailure(
                rank, f"disconnected while being granted a chunk: {exc}"
            ) from exc

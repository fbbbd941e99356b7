"""Thin client for the job service: ``submit(app, spec) -> AppRun``.

One :class:`ServiceClient` holds one authenticated connection to the
daemon and pipelines any number of submissions over it: each SUBMIT
frame carries a client-side sequence number, the daemon echoes it in
the matching JOB_RESULT / JOB_ERROR frame, and a background reader
thread resolves the corresponding :class:`concurrent.futures.Future`.
``submit_async`` is the native shape; ``submit`` is the blocking
convenience; the module-level :func:`submit` does
connect-submit-disconnect for one-shot callers.

Results come back as the same :class:`~repro.apps.AppRun`
records one-shot ``run_app`` produces, so downstream tooling (tables,
plots, validators) cannot tell service runs from local ones — which is
the point: the service changes *where and how warm* jobs run, never
what they compute.
"""

from __future__ import annotations

import pickle
import socket
import threading
from concurrent.futures import Future
from typing import Any, Dict, Optional, Tuple, Union

from ..fabric.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    MSG_AUTH_CHALLENGE,
    MSG_JOB_ERROR,
    MSG_JOB_RESULT,
    MSG_SUBMIT,
    MSG_WELCOME,
    AuthenticationError,
    FabricError,
    PeerDisconnected,
    ProtocolError,
    answer_challenge,
    recv_raw_frame,
    send_frame,
)
from ..apps import AppRun

__all__ = ["JobFailed", "ServiceClient", "submit"]


class JobFailed(RuntimeError):
    """The daemon ran (or rejected) the job and reported an error."""

    def __init__(self, message: str, job_id: Optional[str] = None) -> None:
        super().__init__(message)
        self.job_id = job_id


class ServiceClient:
    """One connection to the daemon; submissions pipeline over it."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7711,
        auth_key: Optional[Union[bytes, str]] = None,
        connect_timeout: float = 10.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.max_frame_bytes = int(max_frame_bytes)
        self._sock = socket.create_connection(
            (host, port), timeout=connect_timeout
        )
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: Dict[int, Future] = {}
        self._seq = 0
        self._closed = False
        #: why the reader stopped, once the connection is gone: every
        #: later request fails at once instead of waiting on a reply
        #: that cannot come
        self._lost: Optional[Exception] = None
        self.server_info = self._handshake(auth_key)
        self._sock.settimeout(None)
        self._reader = threading.Thread(
            target=self._reader_loop, name="gpmr-svc-reader", daemon=True
        )
        self._reader.start()

    # -- handshake ---------------------------------------------------------

    def _handshake(self, auth_key) -> Dict[str, Any]:
        """Branch on the daemon's first frame: challenge or welcome.

        A keyed daemon leads with a raw AUTH_CHALLENGE; a keyless one
        leads with the pickled WELCOME.  Reading raw first means no
        byte is unpickled before we know the connection is greeted.
        """
        try:
            msg_type, payload = recv_raw_frame(
                self._sock, max_frame_bytes=self.max_frame_bytes
            )
        except (FabricError, OSError) as exc:
            self._sock.close()
            raise ConnectionError(f"service handshake failed: {exc}") from exc
        if msg_type == MSG_AUTH_CHALLENGE:
            if auth_key is None:
                self._sock.close()
                raise AuthenticationError(
                    "service requires an auth key but this client has none "
                    "configured (pass auth_key=)"
                )
            try:
                answer_challenge(
                    self._sock, auth_key, challenge=payload,
                    max_frame_bytes=self.max_frame_bytes,
                )
                msg_type, payload = recv_raw_frame(
                    self._sock, max_frame_bytes=self.max_frame_bytes,
                    expect=MSG_WELCOME,
                )
            except (AuthenticationError, ProtocolError):
                self._sock.close()
                raise
            except (FabricError, OSError) as exc:
                self._sock.close()
                raise AuthenticationError(
                    f"service closed the connection during auth "
                    f"(wrong key?): {exc}"
                ) from exc
        elif msg_type != MSG_WELCOME:
            self._sock.close()
            raise ProtocolError(
                f"expected WELCOME or AUTH_CHALLENGE from service, "
                f"got message type {msg_type}"
            )
        return pickle.loads(payload)

    # -- submission --------------------------------------------------------

    def submit_async(
        self,
        app: str,
        spec: Optional[Dict[str, Any]] = None,
        *,
        dataset: Any = None,
        n_gpus: Optional[int] = None,
    ) -> "Future[AppRun]":
        """Queue one job; the Future resolves to its :class:`AppRun`.

        Name the dataset by ``spec`` (the factory's scalar kwargs —
        hits the daemon's cache) or ship a built ``dataset`` object
        verbatim.  ``n_gpus=None`` takes the daemon's default; the job
        runs on the daemon's backend.
        """
        if (spec is None) == (dataset is None):
            raise ValueError("pass exactly one of spec= or dataset=")
        named = {"spec": spec} if spec is not None else {"dataset": dataset}
        return self._request({"app": app, "n_gpus": n_gpus, **named})

    def submit(self, app: str, spec=None, *, timeout=None, **kwargs) -> AppRun:
        """Blocking submit; returns the job's :class:`AppRun`."""
        return self.submit_async(app, spec, **kwargs).result(timeout=timeout)

    def metrics(self, timeout: Optional[float] = 30.0) -> Dict[str, Any]:
        """The daemon's live metrics snapshot (answered out of band)."""
        return self._request({"op": "metrics"}).result(timeout=timeout)

    def _request(self, payload: Dict[str, Any]) -> Future:
        """Send one SUBMIT under a fresh ``seq``; returns the Future its
        reply resolves.  A closed client, or one whose connection is
        lost, refuses at once."""
        fut: Future = Future()
        with self._pending_lock:
            if self._closed:
                raise RuntimeError("client is closed")
            if self._lost is not None:
                raise ConnectionError(
                    f"connection to service lost: {self._lost}"
                )
            self._seq += 1
            seq = payload["seq"] = self._seq
            self._pending[seq] = fut
        try:
            with self._send_lock:
                send_frame(
                    self._sock, MSG_SUBMIT, payload,
                    max_frame_bytes=self.max_frame_bytes,
                )
        except (FabricError, OSError) as exc:
            with self._pending_lock:
                self._pending.pop(seq, None)
            raise ConnectionError(f"submit failed: {exc}") from exc
        return fut

    # -- reader ------------------------------------------------------------

    def _reader_loop(self) -> None:
        while True:
            try:
                msg_type, blob = recv_raw_frame(
                    self._sock, max_frame_bytes=self.max_frame_bytes
                )
                payload = pickle.loads(blob)
            except (FabricError, PeerDisconnected, OSError, EOFError,
                    pickle.UnpicklingError) as exc:
                self._fail_all(exc)
                return
            seq = payload.get("seq") if isinstance(payload, dict) else None
            with self._pending_lock:
                fut = self._pending.pop(seq, None)
            if fut is None:
                continue  # daemon replied to a seq we gave up on
            if msg_type == MSG_JOB_RESULT:
                fut.set_result(self._to_result(payload))
            elif msg_type == MSG_JOB_ERROR:
                fut.set_exception(
                    JobFailed(payload.get("error", "job failed"),
                              job_id=payload.get("job_id"))
                )
            else:
                fut.set_exception(
                    ProtocolError(f"unexpected message type {msg_type}")
                )

    @staticmethod
    def _to_result(payload: Dict[str, Any]) -> Any:
        if "metrics" in payload:  # op=metrics introspection reply
            return payload
        run = AppRun(
            app=payload["app"],
            size=payload["size"],
            n_gpus=payload["n_gpus"],
            elapsed=payload["elapsed"],
            stats=payload.get("stats"),
            backend=payload.get("backend", "local"),
            result=payload.get("result"),
        )
        # Service-side extras ride on the record without changing its
        # shape for downstream table/plot code.
        run.job_id = payload.get("job_id")
        run.cache_hit = payload.get("cache_hit")
        run.ingest_s = payload.get("ingest_s")
        run.service_elapsed = payload.get("service_elapsed")
        return run

    def _fail_all(self, exc: Exception) -> None:
        with self._pending_lock:
            pending, self._pending = self._pending, {}
            was_closed = self._closed
            self._lost = exc
        for fut in pending.values():
            if was_closed:
                fut.set_exception(RuntimeError("client closed"))
            else:
                fut.set_exception(
                    ConnectionError(f"connection to service lost: {exc}")
                )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._pending_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=5.0)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def submit(
    app: str,
    spec: Optional[Dict[str, Any]] = None,
    *,
    address: Tuple[str, int] = ("127.0.0.1", 7711),
    auth_key: Optional[Union[bytes, str]] = None,
    **kwargs,
) -> AppRun:
    """One-shot convenience: connect, run one job, disconnect."""
    with ServiceClient(address[0], address[1], auth_key=auth_key) as client:
        return client.submit(app, spec, **kwargs)

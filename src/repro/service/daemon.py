"""The persistent driver daemon: ``python -m repro.service.daemon``.

One long-lived process owns what every one-shot ``run_app`` call used
to rebuild: the warm :class:`~repro.service.pool.ExecutorPool` and the
:class:`~repro.service.cache.DatasetCache`.  Clients connect over the
fabric wire protocol (:mod:`repro.fabric.wire`), pass the HMAC
challenge-response handshake when the daemon holds a key, and submit
jobs as ``SUBMIT`` frames; results return as ``JOB_RESULT`` /
``JOB_ERROR`` frames tagged with the client's sequence number, so one
connection can pipeline many concurrent submissions.

A ``SUBMIT`` payload has one of two shapes:

* ``{seq, app, spec | dataset, n_gpus}`` runs ``app`` on the daemon's
  backend over the cached dataset of ``spec`` (the factory's scalar
  keyword arguments) or a shipped ``dataset``, on ``n_gpus`` workers
  (``None``: the daemon's default; at most :data:`MAX_SUBMIT_GPUS`);
* ``{seq, op: "metrics"}`` answers at once with the metrics snapshot
  and ``pool_idle``.

Any other key, or a bad value, is answered with a ``JOB_ERROR`` for
that seq, and the connection keeps serving.  Admission is FIFO: one
queue drained by ``max_concurrent_jobs`` runner threads, so the
concurrency limit *is* the admission policy.

The daemon never unpickles a byte from an unauthenticated connection:
the handshake rides raw frames, and a legacy v4 ``HELLO`` (or any
other version skew) is answered with a versioned raw refusal frame
before the socket closes.
"""

from __future__ import annotations

import argparse
import itertools
import pickle
import queue
import socket
import sys
import threading
import time
import traceback
from typing import Any, Dict, Optional, Tuple

from ..apps import APPS
from ..fabric.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    MSG_JOB_ERROR,
    MSG_JOB_RESULT,
    MSG_SUBMIT,
    MSG_WELCOME,
    AuthenticationError,
    FabricError,
    PeerDisconnected,
    ProtocolError,
    ProtocolVersionError,
    PROTOCOL_VERSION,
    deliver_challenge,
    load_auth_key,
    recv_frame,
    send_frame,
    send_raw_frame,
    send_versioned_error,
)
from ..obs import Observability
from .cache import DatasetCache
from .pool import ExecutorPool

__all__ = ["JobService", "main"]

#: Upper bound on how long the accept loop can outlive ``close()`` on a
#: platform where shutting the listener down does not wake ``accept``.
_POLL_SECONDS = 0.2

#: Most workers one SUBMIT may ask for: the paper's largest cluster
#: (a ``local`` daemon forks one rank per worker).
MAX_SUBMIT_GPUS = 64

_RUN_KEYS = frozenset({"seq", "app", "spec", "dataset", "n_gpus"})
_METRICS_KEYS = frozenset({"seq", "op"})


def _submit_error(submit: Dict[str, Any]) -> Optional[str]:
    """Why ``submit`` fits neither SUBMIT shape, or None when it fits."""
    if "op" in submit:
        if submit["op"] != "metrics":
            return f"unknown op {submit['op']!r}"
        allowed = _METRICS_KEYS
    else:
        allowed = _RUN_KEYS
    extra = sorted(map(repr, set(submit) - allowed))
    if extra:
        return f"SUBMIT key(s) {', '.join(extra)} not accepted"
    if allowed is _METRICS_KEYS:
        return None
    if "app" not in submit:
        return "SUBMIT names no app"
    if (submit.get("spec") is None) == (submit.get("dataset") is None):
        return "SUBMIT must carry exactly one of spec or dataset"
    n_gpus = submit.get("n_gpus")
    if n_gpus is not None and (
        type(n_gpus) is not int or not 1 <= n_gpus <= MAX_SUBMIT_GPUS
    ):
        return f"n_gpus must be an int in [1, {MAX_SUBMIT_GPUS}], got {n_gpus!r}"
    return None


class JobService:
    """The daemon: accept clients, admit jobs, run them on warm pools."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_key: Optional[bytes] = None,
        max_concurrent_jobs: int = 2,
        default_backend: str = "local",
        default_n_gpus: int = 2,
        cache_entries: int = 8,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        obs: Optional[Observability] = None,
    ) -> None:
        if max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be >= 1")
        self.auth_key = auth_key
        self.default_backend = default_backend
        self.default_n_gpus = int(default_n_gpus)
        self.max_frame_bytes = int(max_frame_bytes)
        #: daemon-level observability: pool/cache counters, admission
        #: queue depth, and the submit-to-result latency histogram the
        #: service benchmark reads.  Always on — the daemon is the
        #: driver, so this instruments control decisions, never the
        #: (bit-parity-locked) data path.
        self.obs = obs or Observability()
        self.pool = ExecutorPool(obs=self.obs)
        self.cache = DatasetCache(max_entries=cache_entries, obs=self.obs)
        self._listener = socket.create_server((host, port), backlog=64)
        self._listener.settimeout(_POLL_SECONDS)
        self.host, self.port = self._listener.getsockname()[:2]
        self._admission: "queue.SimpleQueue" = queue.SimpleQueue()
        self._job_ids = itertools.count(1)
        self._shutdown = threading.Event()
        self._threads: list = []
        #: (socket, thread) of every client connection accepted
        self._conns: list = []
        self._started = False
        self.max_concurrent_jobs = int(max_concurrent_jobs)

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> "JobService":
        """Start the accept loop and the job-runner threads."""
        if self._started:
            return self
        self._started = True
        accept = threading.Thread(
            target=self._accept_loop, name="gpmr-svc-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        for i in range(self.max_concurrent_jobs):
            t = threading.Thread(
                target=self._runner_loop, name=f"gpmr-svc-runner{i}", daemon=True
            )
            t.start()
            self._threads.append(t)
        return self

    def close(self) -> None:
        """Stop accepting, finish the admitted jobs, hang up on every
        client, release the pool.  The accept loop is woken by the
        listener's shutdown, each runner by one ``None`` sentinel queued
        after every admitted job."""
        self._shutdown.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        except OSError:
            pass
        self._listener.close()
        for _ in range(self.max_concurrent_jobs):
            self._admission.put(None)
        for t in self._threads:
            t.join(timeout=5.0)
        # Hang up on the clients still connected: their readers see EOF
        # and fail at once, rather than submit into a queue no runner
        # serves any more.
        for conn, _t in self._conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for _conn, t in self._conns:
            t.join(timeout=5.0)
        self.pool.close()

    def __enter__(self) -> "JobService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def serve_forever(self) -> None:
        """Block until interrupted (the CLI's main loop)."""
        self.start()
        try:
            self._shutdown.wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    # -- accept / per-connection -------------------------------------------

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            t = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="gpmr-svc-conn", daemon=True,
            )
            t.start()
            self._conns = [
                (c, ct) for c, ct in self._conns if ct.is_alive()
            ] + [(conn, t)]

    def _handshake(self, conn: socket.socket) -> bool:
        """Authenticate (when keyed) and greet; False drops the peer."""
        conn.settimeout(30.0)
        if self.auth_key is not None:
            try:
                deliver_challenge(
                    conn, self.auth_key, max_frame_bytes=self.max_frame_bytes
                )
            except ProtocolVersionError as exc:
                # e.g. a legacy v4 HELLO where the AUTH_RESPONSE should
                # be: refuse with a versioned raw frame, then close.
                send_versioned_error(
                    conn, str(exc), peer_version=exc.peer_version,
                    max_frame_bytes=self.max_frame_bytes,
                )
                conn.close()
                return False
            except (AuthenticationError, FabricError, socket.timeout, OSError):
                conn.close()
                return False
        try:
            send_frame(
                conn,
                MSG_WELCOME,
                {
                    "service": "gpmr-job-service",
                    "protocol": PROTOCOL_VERSION,
                    "apps": sorted(APPS),
                    "default_backend": self.default_backend,
                    "default_n_gpus": self.default_n_gpus,
                },
                max_frame_bytes=self.max_frame_bytes,
            )
        except (FabricError, OSError):
            conn.close()
            return False
        return True

    def _serve_connection(self, conn: socket.socket) -> None:
        if not self._handshake(conn):
            return
        conn.settimeout(None)
        send_lock = threading.Lock()
        try:
            while not self._shutdown.is_set():
                try:
                    _, submit = recv_frame(
                        conn, max_frame_bytes=self.max_frame_bytes,
                        expect=MSG_SUBMIT,
                    )
                except ProtocolVersionError as exc:
                    # A legacy (keyless-era) client got past the greet
                    # only to speak v4 frames: versioned refusal, drop.
                    send_versioned_error(
                        conn, str(exc), peer_version=exc.peer_version,
                        max_frame_bytes=self.max_frame_bytes,
                    )
                    return
                except (PeerDisconnected, OSError):
                    return
                except ProtocolError:
                    return
                self._dispatch(conn, send_lock, submit)
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(
        self, conn: socket.socket, send_lock: threading.Lock, submit: Any
    ) -> None:
        if not isinstance(submit, dict) or "seq" not in submit:
            self._reply(
                conn, send_lock, MSG_JOB_ERROR,
                {"seq": None, "error": "malformed SUBMIT payload"},
            )
            return
        seq = submit["seq"]
        error = _submit_error(submit)
        if error is not None:
            # Answer this seq; the connection's other jobs keep going.
            self._reply(
                conn, send_lock, MSG_JOB_ERROR, {"seq": seq, "error": error}
            )
            return
        if "op" in submit:
            # Introspection is answered inline — it must not queue
            # behind running jobs (it is how clients watch them).
            self._reply(
                conn, send_lock, MSG_JOB_RESULT,
                {"seq": seq, "metrics": self.obs.metrics.snapshot(),
                 "pool_idle": self.pool.idle_count},
            )
            return
        ticket = {
            "conn": conn,
            "send_lock": send_lock,
            "submit": submit,
            "t_submitted": time.perf_counter(),
        }
        self._admission.put(ticket)
        self.obs.metrics.gauge("admission_depth").set(self._admission.qsize())

    def _reply(
        self, conn: socket.socket, send_lock: threading.Lock,
        msg_type: int, payload: Any,
    ) -> None:
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - result of arbitrary app code
            payload = {
                "seq": payload.get("seq"),
                "error": "result not picklable:\n" + traceback.format_exc(),
            }
            msg_type = MSG_JOB_ERROR
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        with send_lock:
            try:
                send_raw_frame(
                    conn, msg_type, blob, max_frame_bytes=self.max_frame_bytes
                )
            except (FabricError, OSError):
                pass  # client went away; the job still ran

    # -- job runners -------------------------------------------------------

    def _runner_loop(self) -> None:
        while True:
            ticket = self._admission.get()
            if ticket is None:  # close()'s sentinel, one per runner
                return
            self.obs.metrics.gauge("admission_depth").set(
                self._admission.qsize()
            )
            self._run_ticket(ticket)

    def _run_ticket(self, ticket: Dict[str, Any]) -> None:
        submit = ticket["submit"]
        seq = submit["seq"]
        job_id = f"j{next(self._job_ids):04d}"
        try:
            payload = self._execute(submit)
        except Exception:  # noqa: BLE001 - job failures go to the client
            self.obs.metrics.counter("jobs_failed").inc()
            self._reply(
                ticket["conn"], ticket["send_lock"], MSG_JOB_ERROR,
                {"seq": seq, "job_id": job_id,
                 "error": traceback.format_exc()},
            )
            return
        elapsed = time.perf_counter() - ticket["t_submitted"]
        self.obs.metrics.histogram("submit_to_result_s").observe(elapsed)
        self.obs.metrics.counter("jobs_completed").inc()
        payload.update(
            {"seq": seq, "job_id": job_id, "service_elapsed": elapsed}
        )
        self._reply(ticket["conn"], ticket["send_lock"], MSG_JOB_RESULT, payload)

    def _execute(self, submit: Dict[str, Any]) -> Dict[str, Any]:
        app = submit["app"]
        try:
            spec_entry = APPS[app]
        except KeyError:
            raise ValueError(
                f"unknown app {app!r}; registered: {sorted(APPS)}"
            ) from None
        backend = self.default_backend
        n_gpus = submit.get("n_gpus") or self.default_n_gpus

        # Dataset: by spec (cached, the warm path) or shipped verbatim.
        t0 = time.perf_counter()
        if submit.get("spec") is not None:
            dataset, cache_hit = self.cache.get(app, submit["spec"])
        else:
            dataset, cache_hit = submit["dataset"], False
        ingest_s = time.perf_counter() - t0
        self.obs.metrics.histogram("ingest_s").observe(ingest_s)

        ex = self.pool.lease(backend, n_gpus)
        try:
            result = spec_entry.runner(
                n_gpus, dataset, backend=backend, executor=ex
            )
        finally:
            self.pool.release(ex)  # back on the shelf warm
        return {
            "app": app,
            "size": spec_entry.size_of(dataset),
            "n_gpus": n_gpus,
            "backend": backend,
            "elapsed": result.elapsed,
            "stats": getattr(result, "stats", None),
            "result": result,
            "cache_hit": cache_hit,
            "ingest_s": ingest_s,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.daemon",
        description="Run the persistent GPMR job service.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: loopback)")
    parser.add_argument("--port", type=int, default=7711,
                        help="port to listen on (default: 7711; 0 = ephemeral)")
    parser.add_argument("--backend", default="local",
                        help="default execution backend (default: local)")
    parser.add_argument("--n-gpus", type=int, default=2,
                        help="default workers per job (default: 2)")
    parser.add_argument("--max-concurrent-jobs", type=int, default=2,
                        help="job-runner threads (default: 2)")
    parser.add_argument("--cache-entries", type=int, default=8,
                        help="dataset cache capacity (default: 8)")
    parser.add_argument("--auth-key-env", default=None, metavar="VAR",
                        help="environment variable holding the shared "
                        "HMAC auth key; clients must present the same key")
    parser.add_argument("--auth-key-file", default=None, metavar="PATH",
                        help="file holding the shared auth key; mutually "
                        "exclusive with --auth-key-env")
    args = parser.parse_args(argv)
    try:
        auth_key = load_auth_key(args.auth_key_env, args.auth_key_file)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.host not in ("127.0.0.1", "localhost", "::1") and auth_key is None:
        print(
            "warning: binding a non-loopback interface without an auth key; "
            "anyone who can reach the port can submit jobs "
            "(see --auth-key-env)",
            file=sys.stderr,
        )
    service = JobService(
        host=args.host,
        port=args.port,
        auth_key=auth_key,
        max_concurrent_jobs=args.max_concurrent_jobs,
        default_backend=args.backend,
        default_n_gpus=args.n_gpus,
        cache_entries=args.cache_entries,
    )
    print(
        f"gpmr job service on {service.host}:{service.port} "
        f"(backend={args.backend}×{args.n_gpus}, "
        f"concurrency={args.max_concurrent_jobs}, "
        f"auth={'on' if auth_key else 'off'})",
        flush=True,
    )
    service.serve_forever()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())

"""The persistent driver daemon: ``python -m repro.service.daemon``.

One long-lived process owns what every one-shot ``run_app`` call used
to rebuild: the warm :class:`~repro.service.pool.ExecutorPool`, the
:class:`~repro.service.cache.DatasetCache`, and the shared multi-job
:class:`~repro.core.scheduler.JobChunkAuthority`.  Clients connect
over the fabric wire protocol (:mod:`repro.fabric.wire`), pass the HMAC
challenge-response handshake when the daemon holds a key, and submit
jobs as ``SUBMIT`` frames; results return as ``JOB_RESULT`` /
``JOB_ERROR`` frames tagged with the client's sequence number, so one
connection can pipeline many concurrent submissions.

Admission is fair-by-priority: submissions land in a priority queue
(lower number first, FIFO within a priority) drained by
``max_concurrent_jobs`` runner threads — the concurrency limit *is*
the admission policy, and each running job's chunks live in their own
namespace on the shared authority, so jobs never steal each other's
work.

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

from ..apps import APPS, MMResult
from ..core.executor import JobResult
from ..core.scheduler import JobChunkAuthority
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


def _strip_obs(result: Any) -> Any:
    """A wire-safe copy of a run result (tracers hold locks)."""
    if isinstance(result, JobResult) and result.obs is not None:
        return JobResult(
            stats=result.stats,
            outputs=result.outputs,
            schedule=result.schedule,
            obs=None,
        )
    if isinstance(result, MMResult):
        return MMResult(
            product=result.product,
            elapsed=result.elapsed,
            phase1=_strip_obs(result.phase1),
            phase2=_strip_obs(result.phase2),
        )
    return result


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
        self.authority = JobChunkAuthority(obs=self.obs)
        self.pool = ExecutorPool(chunk_authority=self.authority, obs=self.obs)
        self.cache = DatasetCache(max_entries=cache_entries, obs=self.obs)
        self._listener = socket.create_server((host, port), backlog=64)
        self._listener.settimeout(_POLL_SECONDS)
        self.host, self.port = self._listener.getsockname()[:2]
        self._admission: "queue.PriorityQueue" = queue.PriorityQueue()
        self._arrivals = itertools.count()
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
        listener's shutdown, each runner by one sentinel ticket that
        sorts after every real one."""
        self._shutdown.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        except OSError:
            pass
        self._listener.close()
        for _ in range(self.max_concurrent_jobs):
            self._admission.put((float("inf"), next(self._arrivals), None))
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
        op = submit.get("op", "run")
        if op == "metrics":
            # Introspection is answered inline — it must not queue
            # behind running jobs (it is how clients watch them).
            self._reply(
                conn, send_lock, MSG_JOB_RESULT,
                {"seq": seq, "metrics": self.obs.metrics.snapshot(),
                 "active_jobs": self.authority.active_jobs,
                 "pool_idle": self.pool.idle_count},
            )
            return
        if op != "run":
            self._reply(
                conn, send_lock, MSG_JOB_ERROR,
                {"seq": seq, "error": f"unknown op {op!r}"},
            )
            return
        try:
            priority = int(submit.get("priority", 0))
        except (TypeError, ValueError):
            # Answer this seq; the connection's other jobs keep going.
            self._reply(
                conn, send_lock, MSG_JOB_ERROR,
                {"seq": seq,
                 "error": f"priority {submit.get('priority')!r} is not an integer"},
            )
            return
        ticket = {
            "conn": conn,
            "send_lock": send_lock,
            "submit": submit,
            "t_submitted": time.perf_counter(),
        }
        self._admission.put((priority, next(self._arrivals), ticket))
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
            _priority, _arrival, ticket = self._admission.get()
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
            payload = self._execute(submit, job_id)
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
        payload.update({"seq": seq, "service_elapsed": elapsed})
        self._reply(ticket["conn"], ticket["send_lock"], MSG_JOB_RESULT, payload)

    def _execute(self, submit: Dict[str, Any], job_id: str) -> Dict[str, Any]:
        app = submit["app"]
        try:
            spec_entry = APPS[app]
        except KeyError:
            raise ValueError(
                f"unknown app {app!r}; registered: {sorted(APPS)}"
            ) from None
        backend = submit.get("backend") or self.default_backend
        n_gpus = int(submit.get("n_gpus") or self.default_n_gpus)
        executor_kwargs = dict(submit.get("executor_kwargs") or {})
        schedule = submit.get("schedule")

        # Dataset: by spec (cached, the warm path) or shipped verbatim.
        t0 = time.perf_counter()
        if submit.get("spec") is not None:
            dataset, cache_hit = self.cache.get(app, dict(submit["spec"]))
        elif submit.get("dataset") is not None:
            dataset, cache_hit = submit["dataset"], False
        else:
            raise ValueError("SUBMIT carries neither spec nor dataset")
        ingest_s = time.perf_counter() - t0
        self.obs.metrics.histogram("ingest_s").observe(ingest_s)

        ex = self.pool.lease(backend, n_gpus, **executor_kwargs)
        ex.job_id = job_id
        try:
            result = spec_entry.runner(
                n_gpus, dataset, backend=backend, schedule=schedule,
                executor=ex,
            )
        finally:
            # Retire the job's chunk namespace; the executor itself
            # goes back on the shelf warm.
            if job_id in self.authority.active_jobs:
                self.authority.close_job(job_id)
            self.pool.release(ex)
        return {
            "job_id": job_id,
            "app": app,
            "size": spec_entry.size_of(dataset),
            "n_gpus": n_gpus,
            "backend": backend,
            "elapsed": result.elapsed,
            "stats": getattr(result, "stats", None),
            "result": _strip_obs(result),
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

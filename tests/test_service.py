"""The job service, tested fast: auth, cache, pool, authority, daemon.

Unit coverage for each service layer plus a serial-backend daemon
smoke (submit → result parity with one-shot ``run_app``, dataset
cache hit on resubmission).  The heavier concurrent-load tier — many
clients, many jobs, the local backend — is the slow-marked
test_job_service.py run by CI's job-service tier.
"""

import hmac
import json
import os
import pickle
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.apps import AppRun, lr_dataset, run_lr, sio_dataset, run_sio
from repro.core.scheduler import JobChunkAuthority
from repro.fabric.wire import (
    HEADER,
    MAGIC,
    MSG_AUTH_CHALLENGE,
    MSG_AUTH_OK,
    MSG_AUTH_RESPONSE,
    MSG_HELLO,
    MSG_JOB_ERROR,
    MSG_SUBMIT,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    AuthenticationError,
    recv_raw_frame,
    send_frame,
    send_raw_frame,
)
from repro.obs import Observability
from repro.service import (
    DatasetCache,
    ExecutorPool,
    JobFailed,
    JobService,
    ServiceClient,
)
from repro.service.daemon import MAX_SUBMIT_GPUS

KEY = b"test-secret"

SIO_SPEC = {"n_elements": 2000, "chunk_elements": 500, "key_space": 128,
            "seed": 3}
LR_SPEC = {"n_points": 1500, "chunk_points": 400, "seed": 4}


@pytest.fixture
def daemon():
    with JobService(port=0, default_backend="serial",
                    max_concurrent_jobs=2) as svc:
        yield svc


@pytest.fixture
def keyed_daemon():
    svc = JobService(port=0, auth_key=KEY, default_backend="serial",
                     max_concurrent_jobs=1).start()
    yield svc
    svc.close()


# -- auth handshake ---------------------------------------------------------


def test_wrong_key_rejected(keyed_daemon):
    with pytest.raises(AuthenticationError):
        ServiceClient(*keyed_daemon.address, auth_key=b"not-the-key")


def test_missing_key_rejected(keyed_daemon):
    with pytest.raises(AuthenticationError, match="requires an auth key"):
        ServiceClient(*keyed_daemon.address)


def test_right_key_accepted_and_runs(keyed_daemon):
    with ServiceClient(*keyed_daemon.address, auth_key=KEY) as client:
        assert client.server_info["service"] == "gpmr-job-service"
        run = client.submit("LR", LR_SPEC, n_gpus=2, timeout=60)
        assert run.app == "LR"


def test_replayed_challenge_response_fails(keyed_daemon):
    # Session 1: answer the fresh challenge correctly, but keep the
    # digest around like a wire sniffer would.
    s1 = socket.create_connection(keyed_daemon.address, timeout=5)
    s1.settimeout(5)
    _, nonce1 = recv_raw_frame(s1, expect=MSG_AUTH_CHALLENGE)
    sniffed = hmac.new(KEY, nonce1, "sha256").digest()
    send_raw_frame(s1, MSG_AUTH_RESPONSE, sniffed)
    msg, _ = recv_raw_frame(s1)
    assert msg == MSG_AUTH_OK
    s1.close()
    # Session 2: replay the sniffed digest against the new challenge.
    # Nonces are fresh per connection, so the replay must be refused.
    s2 = socket.create_connection(keyed_daemon.address, timeout=5)
    s2.settimeout(5)
    _, nonce2 = recv_raw_frame(s2, expect=MSG_AUTH_CHALLENGE)
    assert nonce2 != nonce1
    send_raw_frame(s2, MSG_AUTH_RESPONSE, sniffed)
    msg, payload = recv_raw_frame(s2)
    assert msg == MSG_JOB_ERROR
    assert b"authentication failed" in payload
    s2.close()


def test_legacy_v4_hello_gets_versioned_error(keyed_daemon):
    """An old (v4) client must get a parseable refusal, not a hang."""
    s = socket.create_connection(keyed_daemon.address, timeout=5)
    s.settimeout(5)
    recv_raw_frame(s, expect=MSG_AUTH_CHALLENGE)
    # Answer with a legacy v4 HELLO frame instead of an AUTH_RESPONSE.
    blob = pickle.dumps({"rank": 0})
    s.sendall(HEADER.pack(MAGIC, 4, MSG_HELLO, len(blob)) + blob)
    msg, payload = recv_raw_frame(s)
    assert msg == MSG_JOB_ERROR
    body = json.loads(payload.decode("utf-8"))
    assert body["protocol_version"] == PROTOCOL_VERSION
    assert body["peer_version"] == 4
    s.close()


class _Tripwire:
    """Unpickling this calls ``os.mkdir(path)``: a side effect that
    shows whether the daemon unpickled an unauthenticated frame."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


@pytest.mark.parametrize(
    "msg_type", [MSG_SUBMIT, MSG_AUTH_RESPONSE], ids=["SUBMIT", "AUTH_RESPONSE"]
)
def test_keyed_daemon_never_unpickles_before_auth(keyed_daemon, tmp_path, msg_type):
    """Skip the challenge and send a pickled frame (as a SUBMIT, or in
    the AUTH_RESPONSE slot): the daemon drops the connection and never
    unpickles it."""
    fired = tmp_path / "fired"
    blob = pickle.dumps(_Tripwire(str(fired)))
    with socket.create_connection(keyed_daemon.address, timeout=5) as s:
        s.sendall(HEADER.pack(MAGIC, PROTOCOL_VERSION, msg_type, len(blob)) + blob)
        s.settimeout(10)
        try:
            while s.recv(4096):  # the raw challenge, maybe a refusal
                pass
        except ConnectionResetError:
            pass
    assert not fired.exists(), "a pre-auth frame was unpickled"


def test_legacy_v4_submit_on_keyless_daemon_refused(daemon):
    s = socket.create_connection(daemon.address, timeout=5)
    s.settimeout(5)
    recv_raw_frame(s, expect=MSG_WELCOME)
    blob = pickle.dumps({"seq": 1})
    s.sendall(HEADER.pack(MAGIC, 4, MSG_SUBMIT, len(blob)) + blob)
    msg, payload = recv_raw_frame(s)
    assert msg == MSG_JOB_ERROR
    body = json.loads(payload.decode("utf-8"))
    assert body["protocol_version"] == PROTOCOL_VERSION
    assert body["peer_version"] == 4
    s.close()


def test_garbage_preamble_does_not_kill_daemon(daemon):
    s = socket.create_connection(daemon.address, timeout=5)
    s.settimeout(5)
    recv_raw_frame(s, expect=MSG_WELCOME)
    s.sendall(b"GET / HTTP/1.1\r\n\r\n")
    s.close()
    # The daemon shrugged off the junk connection and still serves.
    with ServiceClient(*daemon.address) as client:
        run = client.submit("LR", LR_SPEC, n_gpus=2, timeout=60)
        assert run.app == "LR"


# -- dataset cache ----------------------------------------------------------


def test_cache_hit_and_miss():
    cache = DatasetCache(max_entries=4)
    ds1, hit1 = cache.get("SIO", SIO_SPEC)
    ds2, hit2 = cache.get("SIO", SIO_SPEC)
    assert (hit1, hit2) == (False, True)
    assert ds2 is ds1
    _, hit3 = cache.get("SIO", {**SIO_SPEC, "seed": 99})
    assert hit3 is False
    assert len(cache) == 2


def test_cache_lru_eviction():
    cache = DatasetCache(max_entries=2)
    cache.get("SIO", SIO_SPEC)
    cache.get("LR", LR_SPEC)
    cache.get("SIO", SIO_SPEC)  # bump SIO to most-recent
    cache.get("WO", {"n_chars": 800, "chunk_chars": 200, "seed": 1})
    assert len(cache) == 2
    _, sio_hit = cache.get("SIO", SIO_SPEC)  # survived (recently used)
    assert sio_hit is True
    _, lr_hit = cache.get("LR", LR_SPEC)  # evicted (least recent)
    assert lr_hit is False


def test_cache_unknown_app():
    with pytest.raises(ValueError, match="unknown app"):
        DatasetCache().get("NOPE", {})


def test_cache_failed_builds_leave_no_build_lock():
    """A build that raises drops its per-key lock: bad specs must not
    grow the lock table without bound."""
    cache = DatasetCache()
    for bad in range(3):
        with pytest.raises(TypeError):
            cache.get("SIO", {"no_such_argument": bad})
    assert cache._building == {}
    assert len(cache) == 0
    # The same key builds fine once the spec is good.
    _, hit = cache.get("SIO", SIO_SPEC)
    assert hit is False
    assert cache._building == {}


# -- executor pool ----------------------------------------------------------


def test_pool_warm_reuse_same_config():
    obs = Observability()
    with ExecutorPool(obs=obs) as pool:
        ex1 = pool.lease("serial", 2)
        pool.release(ex1)
        ex2 = pool.lease("serial", 2)
        assert ex2 is ex1
        pool.release(ex2)
    snap = obs.metrics.snapshot()
    assert snap["counters"]["pool_cold_builds"] == 1
    assert snap["counters"]["pool_warm_hits"] == 1
    assert ex1.closed  # pool.close retires shelved executors


def test_pool_different_config_builds_cold():
    with ExecutorPool() as pool:
        ex1 = pool.lease("serial", 2)
        pool.release(ex1)
        ex2 = pool.lease("serial", 3)
        assert ex2 is not ex1
        ex3 = pool.lease("sim", 2)
        assert ex3 is not ex1


def test_pool_leased_executor_actually_runs():
    ds = sio_dataset(**SIO_SPEC)
    ref = run_sio(2, ds, backend="serial")
    with ExecutorPool() as pool:
        ex = pool.lease("serial", 2)
        got = run_sio(2, ds, backend="serial", executor=ex)
        pool.release(ex)
        # Warm rerun on the same instance stays bit-identical.
        ex = pool.lease("serial", 2)
        again = run_sio(2, ds, backend="serial", executor=ex)
        pool.release(ex)
    for a, b, c in zip(ref.outputs, got.outputs, again.outputs):
        assert np.array_equal(a.keys, b.keys)
        assert a.values.tobytes() == b.values.tobytes() == c.values.tobytes()


def test_pool_closed_lease_raises():
    pool = ExecutorPool()
    pool.close()
    with pytest.raises(RuntimeError, match="closed ExecutorPool"):
        pool.lease("serial", 2)


# -- job chunk authority ----------------------------------------------------


def test_authority_namespaces_are_isolated():
    from repro.core.scheduler import resolve_chunks

    ds = sio_dataset(**SIO_SPEC)
    chunks = resolve_chunks(ds, None)
    auth = JobChunkAuthority()
    a = auth.open_job(chunks, 2, job_id="a")
    b = auth.open_job(chunks, 2, job_id="b")
    assert (auth.get("a"), auth.get("b")) == (a, b)
    assert auth.remaining == 2 * len(chunks)
    # Drain job a completely; job b's queue must be untouched.
    while a.request(0) or a.request(1):
        pass
    assert a.remaining == 0
    assert b.remaining == len(chunks)
    assert auth.remaining == len(chunks)
    assert auth.close_job("a") is a
    with pytest.raises(KeyError):
        auth.get("a")
    assert auth.get("b") is b
    assert auth.remaining == len(chunks)


def test_authority_rejects_live_duplicate_but_supersedes_drained():
    from repro.core.scheduler import resolve_chunks

    ds = sio_dataset(**SIO_SPEC)
    chunks = resolve_chunks(ds, None)
    auth = JobChunkAuthority()
    first = auth.open_job(chunks, 2, job_id="mm")
    with pytest.raises(ValueError, match="in flight"):
        auth.open_job(chunks, 2, job_id="mm")
    while first.request(0) or first.request(1):
        pass
    # Drained: a multi-phase app may reopen the id for its next phase.
    second = auth.open_job(chunks, 2, job_id="mm")
    assert second is not first
    assert auth.get("mm") is second


# -- daemon end-to-end (serial backend; fast) -------------------------------


def test_submit_matches_oneshot(daemon):
    with ServiceClient(*daemon.address) as client:
        run = client.submit("SIO", SIO_SPEC, n_gpus=2, timeout=60)
    ref = run_sio(2, sio_dataset(**SIO_SPEC), backend="serial")
    assert run.size == SIO_SPEC["n_elements"]
    assert run.backend == "serial"
    for a, b in zip(ref.outputs, run.result.outputs):
        assert np.array_equal(a.keys, b.keys)
        assert a.values.tobytes() == b.values.tobytes()


def _daemon_cli(*args):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service.daemon", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def test_daemon_cli_serves_until_sigint():
    """``python -m repro.service.daemon`` prints its address, runs a
    submitted job, and exits 0 on SIGINT."""
    proc = _daemon_cli("--port", "0", "--backend", "serial")
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 30.0)
        assert ready, "the daemon printed no address"
        banner = proc.stdout.readline()
        found = re.search(r" on (\S+):(\d+) ", banner)
        assert found, banner
        with ServiceClient(found.group(1), int(found.group(2))) as client:
            run = client.submit("SIO", SIO_SPEC, n_gpus=2, timeout=60)
        assert isinstance(run, AppRun)
        assert (run.app, run.backend) == ("SIO", "serial")
        assert run.size == SIO_SPEC["n_elements"]
        proc.send_signal(signal.SIGINT)
        _out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_daemon_cli_refuses_a_missing_key_file(tmp_path):
    proc = _daemon_cli("--port", "0", "--auth-key-file",
                       str(tmp_path / "no-such-key"))
    _out, err = proc.communicate(timeout=30)
    assert proc.returncode == 2
    assert err.startswith("error:"), err


def test_resubmission_hits_dataset_cache(daemon):
    with ServiceClient(*daemon.address) as client:
        cold = client.submit("LR", LR_SPEC, n_gpus=2, timeout=60)
        warm = client.submit("LR", LR_SPEC, n_gpus=2, timeout=60)
    assert cold.cache_hit is False
    assert warm.cache_hit is True
    # A hit only bumps the LRU: ingest is bounded by lock overhead,
    # orders of magnitude under any real dataset build.
    assert warm.ingest_s < 0.05


def test_shipped_dataset_bypasses_cache(daemon):
    ds = lr_dataset(**LR_SPEC)
    with ServiceClient(*daemon.address) as client:
        run = client.submit("LR", dataset=ds, n_gpus=2, timeout=60)
    assert run.cache_hit is False
    ref = run_lr(2, ds, backend="serial")
    for a, b in zip(ref.outputs, run.result.outputs):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.values.tobytes() == b.values.tobytes()


def test_unknown_app_is_job_error(daemon):
    with ServiceClient(*daemon.address) as client:
        with pytest.raises(JobFailed, match="unknown app"):
            client.submit("NOPE", {"n": 1}, timeout=60)
        # The connection survives a failed job.
        run = client.submit("LR", LR_SPEC, n_gpus=2, timeout=60)
        assert run.app == "LR"


def _raw_submit(address, payload):
    """Send one pickled SUBMIT on a fresh keyless connection and return
    the daemon's reply ``(msg_type, payload)``."""
    with socket.create_connection(address, timeout=5) as s:
        s.settimeout(60)
        recv_raw_frame(s, expect=MSG_WELCOME)
        send_frame(s, MSG_SUBMIT, payload)
        msg, blob = recv_raw_frame(s)
    return msg, pickle.loads(blob)


def test_submit_with_executor_kwargs_is_refused_and_writes_nothing(
    daemon, tmp_path
):
    """A SUBMIT key outside the two shapes is refused for its seq:
    a client cannot make the daemon write a trace file at its path."""
    target = tmp_path / "x"
    msg, reply = _raw_submit(daemon.address, {
        "seq": 1, "app": "LR", "spec": LR_SPEC, "n_gpus": 2,
        "executor_kwargs": {"trace_path": str(target)},
    })
    assert msg == MSG_JOB_ERROR
    assert reply["seq"] == 1
    assert "'executor_kwargs'" in reply["error"]
    # The daemon still serves; a job after the refusal runs and the
    # refused one never wrote its trace.
    with ServiceClient(*daemon.address) as client:
        assert client.submit("LR", LR_SPEC, n_gpus=2, timeout=60).app == "LR"
    assert not target.exists()


_RUN = {"seq": 7, "app": "LR", "spec": LR_SPEC, "n_gpus": 2}


@pytest.mark.parametrize(
    "payload, named",
    [({**_RUN, "priority": 0}, "'priority'"),
     ({**_RUN, "schedule": None}, "'schedule'"),
     ({**_RUN, "backend": "sim"}, "'backend'"),
     ({**_RUN, "op": "run"}, "unknown op 'run'"),
     ({"seq": 7, "op": "metrics", "app": "LR"}, "'app'"),
     ({"seq": 7, "spec": LR_SPEC, "n_gpus": 2}, "names no app"),
     ({"seq": 7, "app": "LR", "n_gpus": 2}, "exactly one of spec"),
     ({**_RUN, "dataset": lr_dataset(**LR_SPEC)}, "exactly one of spec")],
    ids=["priority", "schedule", "backend", "op-run", "metrics-with-app",
         "no-app", "no-dataset", "spec-and-dataset"],
)
def test_submit_outside_the_two_shapes_is_refused(daemon, payload, named):
    msg, reply = _raw_submit(daemon.address, payload)
    assert msg == MSG_JOB_ERROR
    assert reply["seq"] == 7
    assert named in reply["error"]


def test_job_ids_rise_in_submit_order_on_one_runner():
    """Admission is FIFO: with one runner thread, the jobs pipelined on
    one connection run (and are numbered) in the order sent."""
    with JobService(port=0, default_backend="serial",
                    max_concurrent_jobs=1) as svc:
        with ServiceClient(*svc.address) as client:
            futs = [
                client.submit_async(app, spec, n_gpus=2)
                for app, spec in [("LR", LR_SPEC), ("SIO", SIO_SPEC)] * 3
            ]
            ids = [f.result(timeout=60).job_id for f in futs]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_spec_holding_a_list_is_refused_and_the_connection_serves_on(daemon):
    with ServiceClient(*daemon.address) as client:
        with pytest.raises(JobFailed, match="spec entry 'seed'"):
            client.submit("SIO", {**SIO_SPEC, "seed": [3, 4]}, n_gpus=2,
                          timeout=60)
        assert client.submit("SIO", SIO_SPEC, n_gpus=2, timeout=60).app == "SIO"


def test_n_gpus_out_of_bounds_is_refused_before_any_lease(daemon):
    """Only an int in [1, MAX_SUBMIT_GPUS] reaches the pool: a refused
    count builds no executor (and forks no rank)."""
    with ServiceClient(*daemon.address) as client:
        client.submit("LR", LR_SPEC, n_gpus=2, timeout=60)
        before = client.metrics()["metrics"]["counters"]["pool_cold_builds"]
        for bad in (0, -1, MAX_SUBMIT_GPUS + 1, 2.0, True, "2"):
            with pytest.raises(JobFailed, match="n_gpus"):
                client.submit("LR", LR_SPEC, n_gpus=bad, timeout=60)
        after = client.metrics()["metrics"]["counters"]["pool_cold_builds"]
        assert after == before
        assert client.submit("LR", LR_SPEC, n_gpus=2, timeout=60).app == "LR"


def test_submit_after_the_daemon_closed_fails_at_once():
    """Closing the daemon hangs up on a live client; once its reader has
    seen the EOF, the next submit and metrics call raise ConnectionError
    at once instead of waiting out their timeouts on a reply that
    cannot come."""
    svc = JobService(port=0, default_backend="serial").start()
    client = ServiceClient(*svc.address)
    try:
        assert client.submit("LR", LR_SPEC, n_gpus=2, timeout=60).app == "LR"
        svc.close()
        client._reader.join(timeout=5.0)
        assert not client._reader.is_alive()
        started = time.monotonic()
        with pytest.raises(ConnectionError, match="lost"):
            client.submit("LR", LR_SPEC, n_gpus=2, timeout=30)
        with pytest.raises(ConnectionError, match="lost"):
            client.metrics(timeout=30)
        assert time.monotonic() - started < 1.0
    finally:
        client.close()
        svc.close()


def test_pipelined_submissions_one_connection(daemon):
    with ServiceClient(*daemon.address) as client:
        futs = [
            client.submit_async("SIO", SIO_SPEC, n_gpus=2),
            client.submit_async("LR", LR_SPEC, n_gpus=2),
            client.submit_async("SIO", SIO_SPEC, n_gpus=3),
        ]
        runs = [f.result(timeout=60) for f in futs]
    assert [r.app for r in runs] == ["SIO", "LR", "SIO"]
    assert len({r.job_id for r in runs}) == 3


def test_metrics_op(daemon):
    with ServiceClient(*daemon.address) as client:
        client.submit("LR", LR_SPEC, n_gpus=2, timeout=60)
        snap = client.metrics()
    assert snap["metrics"]["counters"]["jobs_completed"] >= 1
    assert "submit_to_result_s" in snap["metrics"]["histograms"]
    assert snap["pool_idle"] >= 1


def test_mm_two_phase_through_service(daemon):
    """MM's two phases run on one leased executor."""
    spec = {"m": 512, "tile": 256, "seed": 7}
    with ServiceClient(*daemon.address) as client:
        run = client.submit("MM", spec, n_gpus=2, timeout=60)
    from repro.apps import mm_dataset, run_matmul

    ref = run_matmul(2, mm_dataset(**spec), backend="serial")
    assert np.array_equal(ref.product, run.result.product)


def test_concurrent_clients_distinct_connections(daemon):
    results = {}
    errors = []

    def one(i):
        try:
            with ServiceClient(*daemon.address) as client:
                results[i] = client.submit(
                    "SIO", SIO_SPEC, n_gpus=2, timeout=60
                )
        except Exception as exc:  # noqa: BLE001 - surfaced via errors
            errors.append(exc)

    threads = [threading.Thread(target=one, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    ref = run_sio(2, sio_dataset(**SIO_SPEC), backend="serial")
    for run in results.values():
        for a, b in zip(ref.outputs, run.result.outputs):
            assert a.values.tobytes() == b.values.tobytes()

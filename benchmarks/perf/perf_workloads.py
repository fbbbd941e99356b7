"""The five workloads: what each job is, how it runs, how it is checked.

A workload is one *job class* run in a closed loop.  One-shot classes
build an executor, run the job and close the executor per job (what
``run_app`` callers pay); the service class submits through a
self-hosted ``JobService`` from two closed-loop clients.  Every layer
is driven through its public API only, and every output is verified:
the oracles below are plain NumPy/stdlib computations over the
generated inputs and share no code with ``repro``'s kernels.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps import APPS, kmc_job, sio_job, wo_job, wo_mph
from repro.core import make_executor


@dataclass(frozen=True)
class JobClass:
    """One kind of job: app, backend, size.  ``spec`` is the dataset
    factory's keyword arguments minus the seed."""

    app: str
    backend: str
    n_workers: int
    spec: Dict[str, Any]
    quick_spec: Dict[str, Any]
    executor_kwargs: Dict[str, Any] = field(default_factory=dict)

    def sized(self, quick: bool) -> Dict[str, Any]:
        return dict(self.quick_spec if quick else self.spec)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    job: JobClass
    service: bool = False


# Sizes were timed on a 2-core Xeon @ 2.1 GHz (see README.md); each
# class's share of stage time is what makes it the probe it is.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "kmc_map_local",
            "map kernels do ~90% of the work and the shuffle is KBs: a kernel "
            "win must show here, a transport change must not",
            JobClass(
                "KMC", "local", 2,
                dict(n_points=1 << 20, n_centers=32, dims=2, chunk_points=1 << 17),
                dict(n_points=1 << 14, n_centers=32, dims=2, chunk_points=1 << 11),
                # the staged path, pinned: a flipped default must not
                # silently turn this into the fused workload
                dict(fused=False),
            ),
        ),
        Workload(
            "sio_shuffle_cluster",
            "16 MB of pairs cross the TCP fabric: codec, stream, merge, sort "
            "and reduce dominate; map kernels barely matter",
            JobClass(
                "SIO", "cluster", 2,
                dict(n_elements=4 << 20, chunk_elements=1 << 19, key_space=1 << 22),
                dict(n_elements=1 << 16, chunk_elements=1 << 13, key_space=1 << 14),
            ),
        ),
        Workload(
            "wo_small_cluster",
            "fixed cost only: spawn, registration, grant RTT, barrier, teardown "
            "on the same fabric with KB batches; waits show here and nowhere else",
            JobClass(
                "WO", "cluster", 2,
                dict(n_chars=1 << 20, chunk_chars=1 << 17, n_words=5000),
                dict(n_chars=1 << 14, chunk_chars=1 << 11, n_words=5000),
            ),
        ),
        Workload(
            "svc_warm_local",
            "submit to result through the daemon with 2 closed-loop clients: "
            "admission, pool lease, dataset cache (3 hot : 1 never-seen), "
            "result pickle, two concurrent local jobs",
            JobClass(
                "SIO", "local", 2,
                dict(n_elements=256 << 10, chunk_elements=64 << 10, key_space=1 << 16),
                dict(n_elements=1 << 13, chunk_elements=1 << 11, key_space=1 << 10),
            ),
            service=True,
        ),
        Workload(
            "sim_sio_64gpu",
            "wall cost of the executable spec (sim engine, pipeline, scheduler, "
            "hw/net models) at Table-2 SIO size on 64 modeled GPUs",
            JobClass(
                "SIO", "sim", 64,
                # what repro.harness.dataset_for("SIO", 32 Mi) builds,
                # pinned so a harness policy change cannot resize it
                dict(n_elements=32 << 20, chunk_elements=2 << 20, sample_factor=16),
                dict(n_elements=1 << 20, chunk_elements=1 << 17, sample_factor=16),
            ),
        ),
    )
}

SERVICE_CLIENTS = 2
HOT_SPECS = 4          #: hot set < the daemon's 8-entry dataset cache
MISS_EVERY = 4         #: each client: 3 hot submissions, then 1 never-seen


def sizes(quick: bool) -> Dict[str, Any]:
    """Every workload's size, for the fingerprint."""
    return {name: w.job.sized(quick) for name, w in WORKLOADS.items()}


# -- building and running one job ---------------------------------------------

def build_dataset(jc: JobClass, seed: int, quick: bool):
    return APPS[jc.app].dataset(seed=seed, **jc.sized(quick))


def build_job(jc: JobClass, dataset):
    if jc.app == "KMC":
        return kmc_job(dataset)
    if jc.app == "SIO":
        return sio_job(dataset.key_space)
    if jc.app == "WO":
        return wo_job(n_gpus=jc.n_workers, n_words=len(dataset.dictionary))
    raise ValueError(f"no job factory wired for {jc.app!r}")


class Spans:
    """Bench-side spans, kept in memory: name, job, parent, start, end."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._stack: List[str] = []

    @contextmanager
    def __call__(self, name: str, job: int):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.records.append(
                {"name": name, "job": job, "parent": parent, "t0": t0, "t1": t1}
            )


def no_span(name: str, job: int):
    return nullcontext()


def run_once(jc: JobClass, job, dataset, *, backend: Optional[str] = None,
             span: Callable = no_span, job_no: int = 0, obs=None):
    """Construct, run, close: one one-shot job as a caller pays for it."""
    kwargs = dict(jc.executor_kwargs)
    if obs is not None:
        kwargs["obs"] = obs
    with span("exec.construct", job_no):
        ex = make_executor(backend or jc.backend, jc.n_workers, **kwargs)
    try:
        with span("exec.run", job_no):
            result = ex.run(job, dataset)
    finally:
        with span("exec.close", job_no):
            ex.close()
    return result


# -- verification -------------------------------------------------------------

def _rank_outputs(result) -> List[Tuple[int, np.ndarray, np.ndarray]]:
    return [
        (rank, kv.keys, kv.values)
        for rank, kv in enumerate(result.outputs)
        if kv is not None and len(kv)
    ]


def _merged_sorted(result) -> Tuple[np.ndarray, np.ndarray]:
    parts = _rank_outputs(result)
    keys = np.concatenate([p[1] for p in parts])
    values = np.concatenate([p[2] for p in parts])
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order]


def signature(jc: JobClass, result):
    """What must repeat from job to job of one class.

    Integer outputs are partitioned by key and reduced by an
    order-free sum, so per-rank outputs repeat bit for bit: a digest.
    KMC sums floats in steal order, so its 96 values are kept and
    compared within a dtype tolerance.
    """
    if jc.app == "KMC":
        return _merged_sorted(result)
    h = hashlib.blake2b(digest_size=16)
    for rank, keys, values in _rank_outputs(result):
        h.update(rank.to_bytes(4, "little"))
        h.update(np.ascontiguousarray(keys).data)
        h.update(np.ascontiguousarray(values).data)
    return h.hexdigest()


def signatures_differ(first, sig) -> Optional[str]:
    if isinstance(sig, str):
        return None if sig == first else "output digest differs from the class's first job"
    if not np.array_equal(sig[0], first[0]):
        return "keys differ from the class's first job"
    if not np.allclose(sig[1], first[1], rtol=1e-9, atol=1e-9):
        return "values differ from the class's first job beyond 1e-9"
    return None


class Verifier:
    """Every job of a class against the class's first."""

    def __init__(self, jc: JobClass) -> None:
        self.jc = jc
        self.first: Any = None

    def check(self, result) -> Optional[str]:
        sig = signature(self.jc, result)
        if self.first is None:
            self.first = sig
            return None
        return signatures_differ(self.first, sig)


def _all_chunks(dataset) -> List[np.ndarray]:
    return [dataset.chunk(i).data for i in range(dataset.n_chunks)]


def oracle_check(jc: JobClass, dataset, result) -> Optional[str]:
    """Recompute the answer from the generated inputs with plain NumPy."""
    keys, values = _merged_sorted(result)
    if jc.app == "SIO":
        want_keys, want_counts = np.unique(
            np.concatenate(_all_chunks(dataset)), return_counts=True
        )
        if not np.array_equal(keys, want_keys):
            return "oracle: key set differs from np.unique of the inputs"
        if not np.array_equal(values, want_counts):
            return "oracle: counts differ from np.unique of the inputs"
        return None
    if jc.app == "WO":
        counts: Counter = Counter()
        for text in _all_chunks(dataset):
            counts.update(text.tobytes().split())
        words = sorted(counts)
        # keys are slots of the job's perfect hash; it only names them
        slots = wo_mph(len(dataset.dictionary)).lookup_words(words)
        want = np.zeros(len(dataset.dictionary), dtype=np.int64)
        want[slots] = [counts[w] for w in words]
        got = np.zeros_like(want)
        got[keys] = values
        return None if np.array_equal(got, want) else "oracle: word counts differ"
    if jc.app == "KMC":
        centers = dataset.start_centers()
        k, dims = centers.shape
        table = np.zeros((k, dims + 1))
        for pts in _all_chunks(dataset):
            d2 = np.zeros((len(pts), k))
            for d in range(dims):
                d2 += (pts[:, d, None] - centers[None, :, d]) ** 2
            nearest = d2.argmin(axis=1)
            for d in range(dims):
                table[:, d] += np.bincount(nearest, weights=pts[:, d], minlength=k)
            table[:, dims] += np.bincount(nearest, minlength=k)
        got = np.zeros(k * (dims + 1))
        got[keys] = values
        got = got.reshape(k, dims + 1)
        if not np.array_equal(got[:, dims], table[:, dims]):
            return "oracle: per-centre member counts differ"
        if not np.allclose(got[:, :dims], table[:, :dims], rtol=1e-9, atol=1e-9):
            return "oracle: per-centre coordinate sums differ beyond 1e-9"
        return None
    raise ValueError(f"no oracle wired for {jc.app!r}")


# -- the service loop ---------------------------------------------------------

@dataclass
class ServiceSample:
    wall: float
    elapsed: float
    cache_hit: bool
    ingest_s: float
    error: Optional[str] = None


class ServiceRig:
    """A self-hosted daemon with connected clients and a hot cache."""

    def __init__(self, jc: JobClass, seed: int, quick: bool) -> None:
        from repro.service import JobService, ServiceClient

        self.jc = jc
        self.base = jc.sized(quick)
        self.seed = seed
        t0 = time.perf_counter()
        self.service = JobService(
            default_backend=jc.backend, default_n_gpus=jc.n_workers
        ).start()
        self.start_s = time.perf_counter() - t0
        self.clients = [
            ServiceClient(*self.service.address) for _ in range(SERVICE_CLIENTS)
        ]
        self.hot = [self._spec(i) for i in range(HOT_SPECS)]
        self._first_digest: Dict[int, str] = {}
        self._lock = threading.Lock()
        #: seconds of thread CPU spent verifying (kept out of cpu_s_per_job)
        self.verify_cpu_s = 0.0
        self.failures: List[str] = []
        # hot specs cached before the first timed submission
        for spec in self.hot:
            run = self.clients[0].submit(self.jc.app, spec, timeout=120.0)
            err = self._verify(spec, run)
            if err:
                self.failures.append(f"prewarm seed {spec['seed']}: {err}")

    def _spec(self, ordinal: int) -> Dict[str, Any]:
        return dict(self.base, seed=self.seed * 1_000_003 + ordinal)

    def _verify(self, spec: Dict[str, Any], run) -> Optional[str]:
        """First sight of a spec: oracle.  Later sights: digest."""
        c0 = time.thread_time()
        try:
            sig = signature(self.jc, run.result)
            with self._lock:
                first = self._first_digest.get(spec["seed"])
            if first is not None:
                return signatures_differ(first, sig)
            dataset = APPS[self.jc.app].dataset(**spec)
            err = oracle_check(self.jc, dataset, run.result)
            if err is None:
                with self._lock:
                    self._first_digest[spec["seed"]] = sig
            return err
        finally:
            with self._lock:
                self.verify_cpu_s += time.thread_time() - c0

    def client_loop(self, c: int, budget_s: float, max_jobs: Optional[int],
                    deadline_s: float, out: List[ServiceSample]) -> None:
        # The seed fixes each client's cycle through the hot set; a
        # cycle (not independent draws) keeps every hot spec's reuse
        # distance under the cache size, so hits stay at 3 in 4.
        order = np.random.default_rng([self.seed, c]).permutation(HOT_SPECS)
        k = 0
        spent = 0.0
        while spent < budget_s and (max_jobs is None or k < max_jobs):
            if k % MISS_EVERY == MISS_EVERY - 1:
                spec = self._spec(HOT_SPECS + 1 + c + SERVICE_CLIENTS * k)
            else:
                hot_no = k - k // MISS_EVERY
                spec = self.hot[int(order[hot_no % HOT_SPECS])]
            t0 = time.perf_counter()
            try:
                run = self.clients[c].submit(self.jc.app, spec, timeout=deadline_s)
            except Exception as exc:  # noqa: BLE001 - a failed job is a counted failure
                wall = time.perf_counter() - t0
                out.append(ServiceSample(wall, 0.0, False, 0.0,
                                         f"{type(exc).__name__}: {exc}"[:300]))
                spent += wall
                k += 1
                continue
            wall = time.perf_counter() - t0
            err = self._verify(spec, run)
            out.append(ServiceSample(wall, run.elapsed, bool(run.cache_hit),
                                     run.ingest_s or 0.0, err))
            spent += wall
            k += 1

    def run_clients(self, budget_s: float, max_jobs: Optional[int],
                    deadline_s: float) -> List[ServiceSample]:
        """Both clients, closed loop, until each has ``budget_s`` of
        timed submissions behind it."""
        per_client: List[List[ServiceSample]] = [[] for _ in self.clients]
        threads = [
            threading.Thread(
                target=self.client_loop,
                args=(c, budget_s, max_jobs, deadline_s, per_client[c]),
                name=f"bench-client{c}",
            )
            for c in range(len(self.clients))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return [s for samples in per_client for s in samples]

    def metrics_rtt_us(self, n: int) -> float:
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            self.clients[0].metrics(timeout=30.0)
            times.append(time.perf_counter() - t0)
        return float(np.median(times)) * 1e6

    def counters(self) -> Dict[str, int]:
        return dict(self.clients[0].metrics(timeout=30.0)["metrics"]["counters"])

    def close(self) -> float:
        for client in self.clients:
            client.close()
        t0 = time.perf_counter()
        self.service.close()
        return time.perf_counter() - t0

"""Job-free layer probes, plus the daemon and simulator sections of a
traced run.

Each probe times one public function of one layer on a fixed input:
"large" is a 16 MiB pair payload (what one ``sio_shuffle_cluster`` rank
posts), "small" is 4 KiB (what ``wo_small_cluster`` posts), sort-side
primitives see 2 Mi pairs (one rank's share of that shuffle).  A probe
that raises is a counted failure and reports nothing.
"""

import time

T_IMPORT0 = time.perf_counter()
import repro.core  # noqa: E402,F401 - timed: what every spawned rank pays

T_IMPORT_CORE = time.perf_counter()
import repro.apps  # noqa: E402,F401

T_IMPORT_APPS = time.perf_counter()
import repro.exec.cluster  # noqa: E402,F401
import repro.fabric  # noqa: E402,F401

T_IMPORT_CLUSTER = time.perf_counter()

import socket  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
from typing import Callable, Dict, List  # noqa: E402

import numpy as np  # noqa: E402

import perf_workloads as pw  # noqa: E402
from repro.apps import (  # noqa: E402
    kmc_dataset, kmc_job, lr_dataset, lr_job, mm_dataset, mm_phase1_job,
    sio_dataset, sio_job, wo_dataset, wo_job,
)
from repro.core import ChunkService, KeyValueSet, make_executor, resolve_chunks  # noqa: E402
from repro.core.chunk import Chunk  # noqa: E402
from repro.core.kvset import pack_parts, unpack_parts  # noqa: E402
from repro.core.scheduler import JobChunkAuthority  # noqa: E402
from repro.exec.dataflow import MapRunner, merge_incoming, reduce_worker  # noqa: E402
from repro.exec.exchange import decode_batch, encode_batch, release_segment  # noqa: E402
from repro.fabric.stream import recv_batch, send_batch  # noqa: E402
from repro.fabric.wire import MSG_BARRIER, recv_frame, send_frame  # noqa: E402
from repro.primitives import radix_sort_pairs, segmented_reduce, unique_segments  # noqa: E402
from repro.workloads import streamed  # noqa: E402

LARGE_PAIRS = 2 << 20   #: x (4 B key + 4 B value) = 16 MiB
SMALL_PAIRS = 512       #: x 8 B = 4 KiB
SORT_PAIRS = 2 << 20
KEY_BITS = 22           #: sio_shuffle_cluster's key space
MB = 1e6


def timeit(fn: Callable[[], object], min_time: float, min_reps: int = 3) -> float:
    """Median seconds per call, over enough calls (at most 2000) to
    fill ``min_time``."""
    times: List[float] = []
    spent = 0.0
    while len(times) < min_reps or (spent < min_time and len(times) < 2000):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
    return statistics.median(times)


def pairs(n: int, seed: int, key_bits: int = KEY_BITS) -> KeyValueSet:
    rng = np.random.default_rng(seed)
    return KeyValueSet(
        keys=rng.integers(0, 1 << key_bits, size=n, dtype=np.uint32),
        values=np.ones(n, dtype=np.uint32),
    )


def loopback_pair():
    """Two connected TCP sockets over 127.0.0.1, as the fabric uses."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        a = socket.create_connection(listener.getsockname())
        b, _ = listener.accept()
    for s in (a, b):
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        s.settimeout(30.0)
    return a, b


class Probes:
    def __init__(self, seed: int, quick: bool, report) -> None:
        self.seed = seed
        self.quick = quick
        self.report = report
        self.out: Dict[str, float] = {}
        #: per-probe time budget; quick mode only proves the probe runs
        self.t = 0.02 if quick else 0.25
        self.shrink = 16 if quick else 1

    def run(self, name: str, fn: Callable[[], None]) -> None:
        self.report.data["attempted"] += 1
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - a broken probe is a counted failure
            self.report.fail(f"probe {name} raised {type(exc).__name__}: {exc}")

    # -- startup ---------------------------------------------------------------
    def startup(self) -> None:
        self.out["startup.interpreter_s"] = self.report.data["interpreter_s"]
        self.out["startup.import_core_s"] = T_IMPORT_CORE - T_IMPORT0
        self.out["startup.import_apps_s"] = T_IMPORT_APPS - T_IMPORT_CORE
        self.out["startup.import_cluster_s"] = T_IMPORT_CLUSTER - T_IMPORT_APPS
        t = [time.perf_counter() for _ in range(2001)]
        self.out["bench.timer_overhead_us"] = (t[-1] - t[0]) / 2000 * 1e6

    # -- workloads (ingest) ----------------------------------------------------
    def materialize(self) -> None:
        s = self.shrink
        datasets = {
            "SIO": sio_dataset(4 << 20, chunk_elements=(1 << 19) // s, key_space=1 << 22,
                               seed=self.seed),
            "WO": wo_dataset(1 << 20, chunk_chars=(1 << 17) // s, n_words=5000, seed=self.seed),
            "KMC": kmc_dataset(1 << 20, chunk_points=(1 << 17) // s, seed=self.seed),
        }
        for app, ds in datasets.items():
            nbytes = np.asarray(ds.chunk(0).data).nbytes
            sec = timeit(lambda ds=ds: ds.chunk(1), self.t)
            self.out[f"workloads.materialize_mb_s.{app}"] = nbytes / MB / sec
        ds = streamed(sio_dataset, n_elements=1 << 16, chunk_elements=1 << 10,
                      key_space=1 << 16, seed=self.seed)
        reader = ds.chunk_reader
        sec = timeit(lambda: reader.materialize(3), self.t)
        self.out["workloads.reader_chunk_us"] = sec * 1e6

    # -- scheduler ---------------------------------------------------------------
    def scheduler(self) -> None:
        n = 20_000 // self.shrink
        chunks = [Chunk(i, logical_items=1, logical_bytes=4) for i in range(n)]

        def drain(distribution: str) -> float:
            service = ChunkService(chunks, 2, initial_distribution=distribution)

            def pull(worker: int) -> None:
                while service.request(worker) is not None:
                    pass

            threads = [threading.Thread(target=pull, args=(w,)) for w in range(2)]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return n / (time.perf_counter() - t0)

        self.out["scheduler.grants_per_s"] = statistics.median(
            drain("round_robin") for _ in range(3))
        # every chunk starts on rank 0, so rank 1 only ever steals
        self.out["scheduler.steal_grants_per_s"] = statistics.median(
            drain("single") for _ in range(3))
        authority = JobChunkAuthority()
        few = chunks[:8]

        def open_close() -> None:
            authority.open_job(few, 2, job_id="probe")
            authority.close_job("probe")

        self.out["scheduler.open_close_job_us"] = timeit(open_close, self.t) * 1e6

    # -- kvset codec -------------------------------------------------------------
    def kvset(self) -> None:
        large = pairs(LARGE_PAIRS // self.shrink, self.seed)
        small = pairs(SMALL_PAIRS, self.seed + 1)
        for label, kv in (("large", large), ("small", small)):
            manifest, views, nbytes = pack_parts([kv])
            data = b"".join(bytes(v) for v in views)
            pack = timeit(lambda kv=kv: pack_parts([kv]), self.t)
            unpack = timeit(lambda m=manifest, d=data: unpack_parts(m, d), self.t)
            if label == "large":
                self.out["kvset.pack_mb_s.large"] = nbytes / MB / pack
                self.out["kvset.unpack_mb_s.large"] = nbytes / MB / unpack
            else:
                self.out["kvset.pack_us.small"] = pack * 1e6
                self.out["kvset.unpack_us.small"] = unpack * 1e6
        part_ids = (large.keys % np.uint32(2)).astype(np.int64)
        sec = timeit(lambda: large.split_by(part_ids, 2), self.t)
        self.out["kvset.split_by_mpairs_s"] = len(large) / 1e6 / sec

    # -- primitives --------------------------------------------------------------
    def primitives(self) -> None:
        kv = pairs(SORT_PAIRS // self.shrink, self.seed + 2)
        n = len(kv) / 1e6
        sec = timeit(lambda: radix_sort_pairs(kv.keys, kv.values, key_bits=KEY_BITS), self.t)
        self.out["primitives.radix_sort_mpairs_s"] = n / sec
        keys, values = radix_sort_pairs(kv.keys, kv.values, key_bits=KEY_BITS)
        sec = timeit(lambda: unique_segments(keys), self.t)
        self.out["primitives.unique_segments_mpairs_s"] = n / sec
        runs = unique_segments(keys)
        sec = timeit(lambda: segmented_reduce(values, runs.offsets), self.t)
        self.out["primitives.segmented_reduce_mpairs_s"] = n / sec

    # -- dataflow ----------------------------------------------------------------
    def dataflow(self) -> None:
        s = self.shrink
        kmc = kmc_dataset((1 << 17) // s, chunk_points=(1 << 17) // s, seed=self.seed)
        sio = sio_dataset((1 << 19) // s, chunk_elements=(1 << 19) // s, key_space=1 << 22,
                          seed=self.seed)
        wo = wo_dataset((1 << 17) // s, chunk_chars=(1 << 17) // s, n_words=5000, seed=self.seed)
        lr = lr_dataset((1 << 19) // s, chunk_points=(1 << 19) // s, seed=self.seed)
        mm = mm_dataset(256, tile=128, kspan=2, seed=self.seed)
        cases = {
            "KMC": (kmc_job(kmc), kmc),
            "SIO": (sio_job(sio.key_space), sio),
            "WO": (wo_job(n_gpus=2, n_words=5000), wo),
            "LR": (lr_job(), lr),
            "MM": (mm_phase1_job(mm), mm),
        }
        for app, (job, ds) in cases.items():
            chunk = resolve_chunks(ds, None)[0]
            data = chunk.data
            arrays = data if isinstance(data, (tuple, list)) else (data,)
            nbytes = sum(np.asarray(a).nbytes for a in arrays)
            for metric, fused in (("map_mb_s", False), ("map_fused_mb_s", True)):

                def map_once(job=job, chunk=chunk, fused=fused) -> None:
                    runner = MapRunner(job, 2, fused=fused)
                    runner.feed(chunk)
                    runner.finish()

                sec = timeit(map_once, self.t / 2, min_reps=2)
                self.out[f"dataflow.{metric}.{app}"] = nbytes / MB / sec
        kv = pairs(SORT_PAIRS // s, self.seed + 3)
        job = sio_job(1 << KEY_BITS)
        sec = timeit(lambda: reduce_worker(job, [kv]), self.t, min_reps=2)
        self.out["dataflow.reduce_mpairs_s"] = len(kv) / 1e6 / sec
        parts = [pairs(SMALL_PAIRS, self.seed + i) for i in range(8)]
        batches = [(1, parts, list(range(8, 16))), (0, parts, list(range(8)))]
        self.out["dataflow.merge_incoming_us"] = timeit(
            lambda: merge_incoming(batches), self.t) * 1e6

    # -- exchange (local backend's shared-memory transport) ------------------------
    def exchange(self) -> None:
        large = pairs(LARGE_PAIRS // self.shrink, self.seed + 4)
        small = pairs(SMALL_PAIRS, self.seed + 5)

        def roundtrip(kv: KeyValueSet) -> None:
            message = encode_batch([kv])
            parts, segment = decode_batch(message)
            copied = KeyValueSet.concat(parts)  # the reduce path's copy-out
            del parts
            if segment is not None:
                release_segment(segment)
            assert len(copied) == len(kv)

        sec = timeit(lambda: roundtrip(large), self.t)
        self.out["exchange.shm_roundtrip_mb_s"] = large.nbytes_actual / MB / sec
        self.out["exchange.inline_roundtrip_us"] = timeit(lambda: roundtrip(small), self.t) * 1e6

    # -- fabric (cluster backend's TCP transport) ----------------------------------
    def fabric(self) -> None:
        large = pairs(LARGE_PAIRS // self.shrink, self.seed + 6)
        small = pairs(SMALL_PAIRS, self.seed + 7)
        a, b = loopback_pair()

        def echo() -> None:
            # frames echo as frames; a batch is acknowledged with one
            # frame; closing the pair ends the thread
            try:
                while True:
                    kind = b.recv(1)
                    if not kind:
                        return
                    if kind == b"F":
                        _, payload = recv_frame(b)
                        send_frame(b, MSG_BARRIER, payload)
                    else:
                        _, parts, _ = recv_batch(b)
                        send_frame(b, MSG_BARRIER, sum(len(p) for p in parts))
            except OSError:
                return

        thread = threading.Thread(target=echo, name="probe-echo", daemon=True)
        thread.start()
        try:
            def frame_rtt() -> None:
                a.sendall(b"F")
                send_frame(a, MSG_BARRIER, {"barrier": "probe", "rank": 0})
                recv_frame(a)

            def batch_rtt(kv: KeyValueSet) -> None:
                a.sendall(b"B")
                send_batch(a, 0, [kv])
                _, n = recv_frame(a)
                assert n == len(kv)

            self.out["wire.frame_rtt_us"] = timeit(frame_rtt, self.t, min_reps=20) * 1e6
            sec = timeit(lambda: batch_rtt(large), self.t)
            self.out["stream.batch_mb_s"] = large.nbytes_actual / MB / sec
            self.out["stream.batch_small_us"] = timeit(
                lambda: batch_rtt(small), self.t, min_reps=20) * 1e6
        finally:
            a.close()
            b.close()
            thread.join(timeout=5.0)

    # -- fixed per-job cost ----------------------------------------------------------
    def empty_jobs(self) -> None:
        ds = sio_dataset(1 << 10, chunk_elements=1 << 10, key_space=1 << 10, seed=self.seed)
        job = sio_job(ds.key_space)
        for backend in ("local", "cluster", "serial"):
            def empty_job(backend=backend) -> None:
                ex = make_executor(backend, 2)
                try:
                    ex.run(job, ds)
                finally:
                    ex.close()

            empty_job()  # first use of a backend pays its lazy imports
            sec = timeit(empty_job, 0.0, min_reps=1 if self.quick else 5)
            self.out[f"exec.empty_job_ms.{backend}"] = sec * 1e3

    # -- daemon ----------------------------------------------------------------------
    def service(self, watchdog) -> None:
        jc = pw.WORKLOADS["svc_warm_local"].job
        watchdog.arm("service probe", 150.0)
        rig = pw.ServiceRig(jc, self.seed, self.quick)
        try:
            self.report.data["attempted"] += pw.HOT_SPECS
            for failure in rig.failures:
                self.report.fail(failure)
            before = rig.counters()
            samples = rig.run_clients(float("inf") if self.quick else 3.0,
                                      pw.MISS_EVERY if self.quick else None, 45.0)
            after = rig.counters()
            self.report.data["attempted"] += len(samples)
            for s in samples:
                if s.error:
                    self.report.fail(f"service probe job: {s.error}")
            good = [s for s in samples if s.error is None]
            misses = [s for s in good if not s.cache_hit]
            self.out["service.start_s"] = rig.start_s
            self.out["service.submit_overhead_ms"] = statistics.median(
                s.wall - s.elapsed for s in good) * 1e3
            self.out["service.cache_hit_frac"] = sum(s.cache_hit for s in good) / len(good)
            self.out["service.ingest_ms.miss"] = statistics.median(
                s.ingest_s for s in misses) * 1e3
            warm = after.get("pool_warm_hits", 0) - before.get("pool_warm_hits", 0)
            cold = after.get("pool_cold_builds", 0) - before.get("pool_cold_builds", 0)
            self.out["service.pool_warm_frac"] = warm / max(warm + cold, 1)
            self.out["service.metrics_rtt_us"] = rig.metrics_rtt_us(5 if self.quick else 50)
        finally:
            self.out["service.close_s"] = rig.close()
            watchdog.disarm()

    # -- simulator -------------------------------------------------------------------
    def sim(self) -> None:
        jc = pw.WORKLOADS["sim_sio_64gpu"].job
        ds = pw.build_dataset(jc, self.seed, self.quick)
        job = pw.build_job(jc, ds)
        modeled = []
        for label, n in (("1gpu", 1), ("8gpu", 8), ("64gpu", 64), ("64gpu", 64)):
            t0 = time.perf_counter()
            ex = make_executor("sim", n)
            try:
                result = ex.run(job, ds)
            finally:
                ex.close()
            self.out[f"sim.wall_s.{label}"] = time.perf_counter() - t0
            if n == 64:
                modeled.append(result.stats.elapsed)
        # The executable spec is deterministic: same inputs, same
        # modeled seconds, to the last bit.
        if modeled[0] != modeled[1]:
            self.report.fail(f"sim.modeled_s did not repeat: {modeled[0]!r} vs {modeled[1]!r}")
        self.out["sim.modeled_s"] = modeled[0]


def run_all(args, report, watchdog) -> None:
    probes = Probes(args.seed, args.quick, report)
    watchdog.arm("probes", 150.0)
    for name in ("startup", "materialize", "scheduler", "kvset", "primitives",
                 "dataflow", "exchange", "fabric", "empty_jobs", "sim"):
        probes.run(name, getattr(probes, name))
    watchdog.disarm()
    probes.run("service", lambda: probes.service(watchdog))
    report.data["layers"] = probes.out

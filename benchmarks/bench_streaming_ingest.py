"""Out-of-core streaming ingest: bounded driver RSS + grant prefetch.

Two claims, one bench:

* **Bounded driver memory.**  A dataset rebuildable from scalars (every
  registered one) hands the chunk service *descriptors* — ``(reader
  key, chunk index)`` pairs — instead of materialised payloads; workers
  build each chunk at grant time and drop it once mapped.  The bench
  runs an SIO dataset whose logical payload is at least **4x** a
  configured driver memory budget on the local and cluster backends and
  asserts the driver's RSS high-water growth stays under that budget,
  while the same job over the same payloads handed in as resident
  ``chunks=`` grows by the full payload.  Both runs must be
  bit-identical per rank.

* **Grant prefetch.**  Ranks pipeline CHUNK_REQ frames (up to
  ``1 + prefetch_window`` in flight), so the next grant's wire round
  trip hides under the current chunk's map.  The bench runs a
  many-chunk SIO job on the cluster backend with the window open
  (default) and closed (``prefetch_window=0``) and compares grant-wait
  p50/p99 straight from the runs' ``grant_latency_s`` histograms.

Smoke mode shrinks the payload (and the budget with it); the RSS bound
and the prefetch ordering are still evaluated, advisorily.
"""

import resource
import time

from repro.apps.sparse_int_occurrence import sio_dataset, sio_job
from repro.core import Chunk, make_executor
from repro.harness import bench_smoke_enabled
from repro.obs import Observability

SMOKE = bench_smoke_enabled()

#: Driver memory budget the streamed runs must stay under (MiB of RSS
#: growth), and a logical payload at least 4x that.
BUDGET_MIB = 8 if SMOKE else 64
N_ELEMENTS = (8 << 20) if SMOKE else (64 << 20)  # uint32 -> 32 / 256 MiB
N_CHUNKS = 64
KEY_SPACE = 1 << 16
SEED = 99
N_WORKERS = 2 if SMOKE else 4

#: The prefetch comparison wants many grants per rank so the one
#: unavoidably cold first round-trip per rank stays below the p99 cut,
#: and a per-chunk map cost that exceeds the grant round-trip — at
#: paper scale a chunk maps for many milliseconds, so at bench scale
#: SIOMapper's per-chunk delay hook stands in for real map time
#: (without it the map is shorter than the wire RTT and there is
#: nothing for the window to hide the round-trip under).
PF_N_ELEMENTS = (256 << 10) if SMOKE else (4 << 20)
PF_N_CHUNKS = 256 if SMOKE else 1024
PF_MAP_SECONDS = 0.001


def _spec():
    return dict(
        n_elements=N_ELEMENTS,
        chunk_elements=N_ELEMENTS // N_CHUNKS,
        key_space=KEY_SPACE,
        seed=SEED,
    )


def _rss_mib() -> float:
    """This process's RSS high-water mark in MiB (ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _outputs_bytes(result):
    return [
        None if kv is None else (kv.keys.tobytes(), kv.values.tobytes())
        for kv in result.outputs
    ]


def _measure():
    job = sio_job(key_space=KEY_SPACE).with_config(enable_stealing=False)

    # Warm both backends on a toy payload first so imports, process
    # start-up, and executor machinery are already in the RSS baseline
    # and the streamed deltas below measure *data*, not infrastructure.
    warm = sio_dataset(1 << 12, chunk_elements=1 << 10, key_space=KEY_SPACE)
    for backend in ("local", "cluster"):
        make_executor(backend, N_WORKERS).run(job, dataset=warm)

    logical_mib = N_ELEMENTS * 4 / (1 << 20)
    rss0 = _rss_mib()

    # Streamed runs FIRST: ru_maxrss is a monotonic high-water mark, so
    # the materialised comparison runs must not precede them.
    growth = {}   # label -> driver RSS growth (MiB)
    wall = {}     # label -> seconds
    streamed_out = {}
    for backend in ("local", "cluster"):
        ds = sio_dataset(**_spec())
        t0 = time.perf_counter()
        result = make_executor(backend, N_WORKERS).run(job, dataset=ds)
        wall[f"{backend}/streamed"] = time.perf_counter() - t0
        growth[f"{backend}/streamed"] = _rss_mib() - rss0
        streamed_out[backend] = _outputs_bytes(result)

    for backend in ("local", "cluster"):
        ds = sio_dataset(**_spec())
        t0 = time.perf_counter()
        resident = [Chunk.from_work_item(item) for item in ds.chunks()]
        result = make_executor(backend, N_WORKERS).run(job, chunks=resident)
        del resident
        wall[f"{backend}/materialised"] = time.perf_counter() - t0
        growth[f"{backend}/materialised"] = _rss_mib() - rss0
        assert _outputs_bytes(result) == streamed_out[backend], (
            f"{backend}: streamed run is not bit-identical to materialised"
        )

    # Grant prefetch on vs off, same job shape, cluster backend.
    pf_job = sio_job(
        key_space=KEY_SPACE, map_sleep_seconds=PF_MAP_SECONDS
    ).with_config(enable_stealing=False)
    pf_ds = sio_dataset(
        PF_N_ELEMENTS,
        chunk_elements=PF_N_ELEMENTS // PF_N_CHUNKS,
        key_space=KEY_SPACE,
        seed=SEED,
    )
    grant = {}    # window -> grant_latency_s summary
    pf_wall = {}  # window -> seconds
    for window in (0, 1):
        obs = Observability()
        t0 = time.perf_counter()
        make_executor(
            "cluster", N_WORKERS, prefetch_window=window, obs=obs
        ).run(pf_job, dataset=pf_ds)
        pf_wall[window] = time.perf_counter() - t0
        grant[window] = obs.metrics.histogram("grant_latency_s").summary()

    return logical_mib, growth, wall, grant, pf_wall


def _render(logical_mib, growth, wall, grant, pf_wall):
    lines = [
        f"streaming ingest — SIO, {logical_mib:.0f} MiB logical payload, "
        f"{N_CHUNKS} chunks, {N_WORKERS} workers, driver budget "
        f"{BUDGET_MIB} MiB (payload = {logical_mib / BUDGET_MIB:.1f}x budget)",
        f"{'run':>22} {'wall_ms':>9} {'rss_growth_MiB':>15}",
    ]
    for label in ("local/streamed", "cluster/streamed",
                  "local/materialised", "cluster/materialised"):
        lines.append(
            f"{label:>22} {wall[label] * 1e3:>9.0f} {growth[label]:>15.1f}"
        )
    lines += [
        "",
        "(streamed and materialised runs are asserted bit-identical per "
        "rank; rss growth is cumulative high-water over the run order "
        "above)",
        "",
        f"grant prefetch — cluster, {PF_N_CHUNKS} chunks over "
        f"{N_WORKERS} workers, {PF_MAP_SECONDS * 1e3:.0f} ms/chunk map: "
        "CHUNK_REQ pipelining on (window=1, default) vs off (window=0), "
        "grant_latency_s histogram",
        f"{'window':>7} {'grants':>7} {'p50_us':>8} {'p99_us':>8} "
        f"{'max_us':>8} {'wall_ms':>8}",
    ]
    for window in (0, 1):
        s = grant[window]
        lines.append(
            f"{window:>7} {s['count']:>7.0f} {s['p50'] * 1e6:>8.0f} "
            f"{s['p99'] * 1e6:>8.0f} {s['max'] * 1e6:>8.0f} "
            f"{pf_wall[window] * 1e3:>8.0f}"
        )
    return "\n".join(lines)


def test_streaming_ingest(benchmark, save_result, check):
    logical_mib, growth, wall, grant, pf_wall = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    save_result(
        "streaming_ingest",
        _render(logical_mib, growth, wall, grant, pf_wall),
    )
    benchmark.extra_info.update(
        {
            "payload_mib": round(logical_mib, 1),
            "budget_mib": BUDGET_MIB,
            "local_streamed_rss_growth_mib": round(
                growth["local/streamed"], 1
            ),
            "cluster_streamed_rss_growth_mib": round(
                growth["cluster/streamed"], 1
            ),
            "grant_p99_us_prefetch_off": round(grant[0]["p99"] * 1e6, 1),
            "grant_p99_us_prefetch_on": round(grant[1]["p99"] * 1e6, 1),
        }
    )

    # The payload really is out-of-budget...
    assert logical_mib >= 4 * BUDGET_MIB
    # ...and the streamed driver never buys it: RSS growth stays under
    # the budget on both process backends (the materialised runs, which
    # hold every chunk driver-side, are the scale of the payload).
    check(
        growth["local/streamed"] < BUDGET_MIB,
        "local streamed driver RSS growth stays under the budget",
    )
    check(
        growth["cluster/streamed"] < BUDGET_MIB,
        "cluster streamed driver RSS growth stays under the budget",
    )
    check(
        growth["cluster/materialised"] > logical_mib / 2,
        "materialised run pays payload-scale driver RSS",
    )
    # Prefetch hides the grant round-trip under the map: the pipelined
    # window's grant-wait tail must drop measurably.
    check(
        grant[1]["p99"] < grant[0]["p99"],
        "grant-wait p99 drops with the prefetch window open",
    )
    check(
        grant[1]["p50"] < grant[0]["p50"],
        "grant-wait p50 drops with the prefetch window open",
    )

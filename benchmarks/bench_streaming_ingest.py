"""Out-of-core streaming ingest: bounded driver RSS.

A dataset rebuildable from scalars (every registered one) hands the
chunk service *descriptors* — ``(reader key, chunk index)`` pairs —
instead of materialised payloads; workers build each chunk at grant
time and drop it once mapped.  The bench runs an SIO dataset whose
logical payload is at least **4x** a configured driver memory budget on
the local and cluster backends and asserts the driver's RSS high-water
growth stays under that budget, while the same job over the same
payloads handed in as resident ``chunks=`` grows by the full payload.
Both runs must be bit-identical per rank.

Smoke mode shrinks the payload (and the budget with it); the RSS bound
is still evaluated, advisorily.
"""

import resource
import time

from repro.apps.sparse_int_occurrence import sio_dataset, sio_job
from repro.core import Chunk, make_executor
from repro.harness import bench_smoke_enabled

SMOKE = bench_smoke_enabled()

#: Driver memory budget the streamed runs must stay under (MiB of RSS
#: growth), and a logical payload at least 4x that.
BUDGET_MIB = 8 if SMOKE else 64
N_ELEMENTS = (8 << 20) if SMOKE else (64 << 20)  # uint32 -> 32 / 256 MiB
N_CHUNKS = 64
KEY_SPACE = 1 << 16
SEED = 99
N_WORKERS = 2 if SMOKE else 4


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

    return logical_mib, growth, wall


def _render(logical_mib, growth, wall):
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
    ]
    return "\n".join(lines)


def test_streaming_ingest(benchmark, save_result, check):
    logical_mib, growth, wall = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    save_result("streaming_ingest", _render(logical_mib, growth, wall))
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

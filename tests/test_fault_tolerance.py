"""Fault tolerance: kill -9 mid-map, reclaim, respawn.

The contract under test is the tentpole one: kill a rank mid-map on
any backend and the job still completes with output **bit-identical**
to a failure-free run, with ``chunks_reclaimed > 0`` proving the
recovery path actually ran.  The real backends take a genuine SIGKILL
(local and cluster alike: one endpoint process per rank, killed
mid-protocol and replaced by a rejoining incarnation); the serial and
sim mirrors model the same death deterministically so recovery
schedules stay record/replay-able.  A loop of the kill scenario, each
run under a hard deadline, guards against a recovery that hangs once
in a hundred runs.

The tier is marked ``slow`` (real processes, real sockets, scripted
stalls): the default ``pytest -m "not slow"`` run skips it, and CI
executes it in its own ``kill-recovery`` job.
"""

import threading
import time

import numpy as np
import pytest

from repro.apps.sparse_int_occurrence import sio_dataset, sio_job, sio_validate
from repro.core import FaultPlan, KeyValueSet, Mapper, make_executor

pytestmark = pytest.mark.slow

N_WORKERS = 4


def _dataset():
    # 16 chunks over 4 workers: enough grants that a rank dying at its
    # second grant is genuinely mid-map.
    return sio_dataset(
        n_elements=64_000, chunk_elements=4_000, key_space=1 << 14, seed=7
    )


def _assert_bit_identical(ref, got, tag):
    assert len(ref.outputs) == len(got.outputs), tag
    for rank, (a, b) in enumerate(zip(ref.outputs, got.outputs)):
        where = f"{tag} rank {rank}"
        assert (a is None) == (b is None), where
        if a is None:
            continue
        assert a.keys.dtype == b.keys.dtype, where
        assert np.array_equal(a.keys, b.keys), where
        assert a.values.dtype == b.values.dtype, where
        assert a.values.tobytes() == b.values.tobytes(), where
        assert a.scale == b.scale, where


def _run(backend, fault_plan=None, schedule=None, **kwargs):
    ds = _dataset()
    result = make_executor(
        backend, N_WORKERS, fault_plan=fault_plan, **kwargs
    ).run(sio_job(ds.key_space), dataset=ds, schedule=schedule)
    sio_validate(result, ds)
    return result


# -- kill -9 mid-map on every backend ----------------------------------------

@pytest.mark.parametrize(
    "backend,kwargs",
    [
        ("local", {}),
        ("cluster", {"timeout_seconds": 60.0}),
    ],
)
def test_kill_rank_mid_map_bit_identical(backend, kwargs):
    """A rank SIGKILLed at its 2nd grant is reclaimed + respawned; the
    recovered run is bit-identical to the failure-free one."""
    ref = _run(backend, **kwargs)
    assert ref.stats.chunks_reclaimed == 0
    # Rank 1 dies only if it is granted two chunks.  Its peers cannot
    # rob it before they drained their own four chunks each, and a
    # stalled rank sleeps before every pull: their first steal is at
    # least 4 x 0.1 s after they start, however late rank 1 is forked
    # or scheduled (unstalled, the race was lost about once in 15 runs
    # under load).
    got = _run(
        backend,
        fault_plan=FaultPlan(
            kill_rank_at_chunk={1: 2},
            stall_seconds={0: 0.1, 2: 0.1, 3: 0.1},
        ),
        **kwargs,
    )
    assert got.stats.chunks_reclaimed > 0
    # Reclaimed chunks are re-granted as flagged retries — to the
    # respawned rank or to a survivor that stole them first.
    assert sum(got.stats.retries_by_worker) > 0
    _assert_bit_identical(ref, got, f"{backend} kill mid-map")


class _FloatCountMapper(Mapper):
    """Emit <key, float> per input integer, the float depending on the
    item's place in the dataset: a key's sum then depends on the order
    its values reach the reducer."""

    def map_chunk(self, chunk):
        data = chunk.data
        place = np.arange(len(data), dtype=np.float64) + 4096.0 * chunk.index
        return KeyValueSet(
            keys=data.astype(np.uint32), values=np.sqrt(place + 1.0), scale=chunk.scale
        )

    def map_cost(self, chunk):
        return []


def _order_sensitive_jobs():
    """``{shape: (job, dataset)}``: KMC as the paper runs it (float sums
    in the accumulator); its per-point port with ``skip_sort_reduce``,
    whose output is the shuffled pairs themselves; and a float-valued
    count job whose reducer sums each key's values as sorted.  The
    first pins the fold order, the other two the pair order.  Stealing
    off, so the clean run's grant order is fixed."""
    from dataclasses import replace

    from repro.apps.kmeans import kmc_dataset, kmc_job
    from test_core_pipeline import count_job, make_dataset

    kmc = kmc_dataset(n_points=64_000, chunk_points=4_000, seed=3)
    folded = kmc_job(kmc)
    pairs = replace(kmc_job(kmc, use_accumulation=False), reducer=None)
    counts = make_dataset(n=64_000, chunk=4_000)
    return {
        "accumulate": (folded.with_config(enable_stealing=False), kmc),
        "skip_sort_reduce": (
            pairs.with_config(enable_stealing=False, skip_sort_reduce=True), kmc
        ),
        "float_count": (
            count_job(name="float-count", mapper=_FloatCountMapper()).with_config(
                enable_stealing=False
            ),
            counts,
        ),
    }


@pytest.mark.parametrize("shape", ["accumulate", "skip_sort_reduce", "float_count"])
@pytest.mark.parametrize("backend", ["sim", "serial", "local", "cluster"])
def test_kill_keeps_an_order_sensitive_job_bit_identical(backend, shape):
    """A rank killed at its 2nd grant must not change a float sum or a
    pair order: its lost chunks go back to the head of its queue in
    grant order, so the replacement maps them in the clean run's order
    (appended at the tail, they changed KMC's last bits on every
    backend)."""
    job, ds = _order_sensitive_jobs()[shape]

    kwargs = {"timeout_seconds": 60.0} if backend in ("local", "cluster") else {}

    def run(fault_plan):
        return make_executor(
            backend, N_WORKERS, fault_plan=fault_plan, **kwargs
        ).run(job, dataset=ds)

    clean = run(None)
    killed = run(FaultPlan(kill_rank_at_chunk={1: 2}))
    assert killed.stats.chunks_reclaimed > 0
    _assert_bit_identical(clean, killed, f"{backend} {shape} kill")


#: runs per backend of the kill loop below, and each run's hard deadline
KILL_LOOP_RUNS = 20
KILL_LOOP_DEADLINE_SECONDS = 30.0


def _within_deadline(fn, seconds, tag):
    """``fn()`` on a daemon thread: its result, its exception, or a test
    failure once ``seconds`` pass — a hung run fails, it cannot hang
    pytest."""
    outcome = {}

    def target():
        try:
            outcome["result"] = fn()
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target, name=tag, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        pytest.fail(f"{tag}: no result within the {seconds} s deadline")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


@pytest.mark.parametrize("backend", ["local", "cluster"])
def test_kill_loop_never_hangs(backend):
    """The mid-map kill scenario above, run back to back: a rank dying
    at any point of its protocol (a SIGKILL can land while a frame is
    half written) must be recovered every time.  Each run is checked
    bit-identical against serial under a hard deadline."""
    ds = _dataset()
    job = sio_job(ds.key_space)
    ref = make_executor("serial", N_WORKERS).run(job, dataset=ds)
    plan = FaultPlan(
        kill_rank_at_chunk={1: 2}, stall_seconds={0: 0.1, 2: 0.1, 3: 0.1}
    )
    for i in range(KILL_LOOP_RUNS):
        tag = f"{backend} kill loop run {i}"
        got = _within_deadline(
            lambda: make_executor(
                backend, N_WORKERS, fault_plan=plan,
                timeout_seconds=KILL_LOOP_DEADLINE_SECONDS,
            ).run(job, dataset=ds),
            KILL_LOOP_DEADLINE_SECONDS,
            tag,
        )
        assert got.stats.chunks_reclaimed > 0, tag
        _assert_bit_identical(ref, got, tag)


@pytest.mark.parametrize("backend", ["serial", "sim"])
def test_kill_mirror_backends_bit_identical(backend):
    """The serial/sim mirrors model the same death deterministically."""
    ref = _run(backend)
    got = _run(backend, fault_plan=FaultPlan(kill_rank_at_chunk={1: 2}))
    assert got.stats.chunks_reclaimed > 0
    _assert_bit_identical(ref, got, f"{backend} kill mirror")


def test_sim_recovery_schedule_replays_clean():
    """The effective schedule a faulted sim run records grants every
    chunk exactly once, so it replays bit-identically on a clean sim —
    recovery runs stay record/replay-able."""
    faulted = _run("sim", fault_plan=FaultPlan(kill_rank_at_chunk={2: 1}))
    assert faulted.stats.chunks_reclaimed > 0
    replayed = _run("sim", schedule=faulted.schedule)
    assert replayed.stats.chunks_reclaimed == 0
    _assert_bit_identical(faulted, replayed, "sim recovery replay")


def test_local_kill_recovery_is_not_paced_by_a_tick():
    """The driver sleeps on each rank's process sentinel, so a SIGKILL
    wakes it at once: the recovered run (detect, reclaim, fork a
    replacement, re-map) ends within 0.25 s of a clean one.  Noticing
    the death on a 0.5 s result-queue tick would put it ~0.5 s behind.
    Stealing is off so that rank 1 is certain to be granted its second
    chunk, whatever the start-up order."""
    ds = _dataset()
    job = sio_job(ds.key_space).with_config(enable_stealing=False)

    def timed_run(fault_plan):
        t0 = time.perf_counter()
        result = make_executor(
            "local", N_WORKERS, fault_plan=fault_plan, timeout_seconds=30.0
        ).run(job, dataset=ds)
        return time.perf_counter() - t0, result

    clean = [timed_run(None) for _ in range(3)]
    killed = [
        timed_run(FaultPlan(kill_rank_at_chunk={1: 2})) for _ in range(3)
    ]
    for _, result in killed:
        assert result.stats.chunks_reclaimed > 0
        _assert_bit_identical(clean[0][1], result, "local kill latency")
    best_clean = min(wall for wall, _ in clean)
    best_killed = min(wall for wall, _ in killed)
    assert best_killed - best_clean < 0.25, (best_clean, best_killed)


def test_respawn_budget_exhaustion_fails_the_run():
    """With max_respawns=0 a death is terminal, as before the redesign."""
    from repro.exec import WorkerFailure

    with pytest.raises(WorkerFailure):
        _run(
            "local",
            fault_plan=FaultPlan(
                kill_rank_at_chunk={1: 1}, max_respawns=0
            ),
        )


# -- plan validation at the executor boundary --------------------------------

def test_fault_plan_and_schedule_replay_are_mutually_exclusive():
    clean = _run("sim")
    for backend in ("sim", "serial", "local"):
        ex = make_executor(
            backend, N_WORKERS, fault_plan=FaultPlan(kill_rank_at_chunk={0: 1})
        )
        ds = _dataset()
        with pytest.raises(ValueError, match="schedule"):
            ex.run(sio_job(ds.key_space), dataset=ds, schedule=clean.schedule)


def test_out_of_range_rank_rejected_at_construction():
    with pytest.raises(ValueError, match="only 2 worker"):
        make_executor(
            "local", 2, fault_plan=FaultPlan(kill_rank_at_chunk={5: 1})
        )

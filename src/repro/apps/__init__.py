"""The paper's five benchmark applications (S12), on the GPMR public API.

Each app module provides: the Mapper/Reducer implementations with their
kernel cost descriptors, a ``*_job`` factory, a ``*_dataset`` factory,
a ``*_validate`` oracle check, ``run_*`` conveniences, and the Phoenix
workload descriptor used by Table 2.  MM, KMC and WO, the three apps
Table 3 compares, also provide a Mars workload descriptor.

Every ``run_*`` convenience shares one uniform signature —
``run_x(n_gpus, dataset, *, backend="sim", schedule=None,
<app-specific keywords>, **executor_kwargs)`` — and :data:`APPS` maps
the paper's app names to those runners so harness code dispatches by
registry instead of if/elif chains; :func:`run_app` is that dispatch,
returning one :class:`AppRun` record per run.
"""

from dataclasses import dataclass
from typing import Callable, Optional

from .kmeans import (
    CenterPartitioner,
    KMCMapper,
    NaiveKMCMapper,
    KMCReducer,
    kmc_dataset,
    kmc_extract_centers,
    kmc_job,
    kmc_mars_workload,
    kmc_phoenix_workload,
    kmc_validate,
    run_kmc,
)
from .linear_regression import (
    LR_KEYS,
    LRMapper,
    NaiveLRMapper,
    LRReducer,
    lr_dataset,
    lr_extract_sums,
    lr_fit,
    lr_job,
    lr_phoenix_workload,
    lr_validate,
    run_lr,
)
from .matmul import (
    MMPhase1Mapper,
    MMPhase2Mapper,
    MMResult,
    mm_dataset,
    mm_mars_workload,
    mm_phase1_job,
    mm_phase2_job,
    mm_phoenix_workload,
    mm_validate,
    run_matmul,
)
from .sparse_int_occurrence import (
    SIOMapper,
    SIOReducer,
    run_sio,
    sio_dataset,
    sio_job,
    sio_phoenix_workload,
    sio_validate,
)
from .word_occurrence import (
    PARTITIONER_THRESHOLD,
    WOMapper,
    WOThreadReducer,
    WOWarpReducer,
    run_wo,
    wo_dataset,
    wo_job,
    wo_mars_workload,
    wo_mph,
    wo_phoenix_workload,
    wo_validate,
)
from ..core.executor import JobResult
from ..core.stats import JobStats


@dataclass(frozen=True)
class AppSpec:
    """One registry entry: how to run, size, and feed a benchmark app."""

    #: the uniform ``run_*`` convenience for this app
    runner: Callable
    #: dataset -> problem size (the scaling plots' x-axis)
    size_of: Callable
    #: the app's ``*_dataset`` factory (deterministic: same keyword
    #: spec, same data) — the job service builds and caches datasets
    #: through this, keyed on ``(app, spec)``, so repeat traffic
    #: skips ingest
    dataset: Callable


#: The paper's five apps, by their Table-1 names.  Harness code
#: dispatches through this instead of hard-coding the app list; adding
#: an app means registering it here.
APPS = {
    "SIO": AppSpec(run_sio, lambda ds: ds.n_elements, sio_dataset),
    "WO": AppSpec(run_wo, lambda ds: ds.n_chars, wo_dataset),
    "KMC": AppSpec(run_kmc, lambda ds: ds.n_points, kmc_dataset),
    "LR": AppSpec(run_lr, lambda ds: ds.n_points, lr_dataset),
    "MM": AppSpec(run_matmul, lambda ds: ds.m, mm_dataset),
}


@dataclass
class AppRun:
    """One measured execution of an app on some execution backend."""

    app: str
    size: int
    n_gpus: int
    elapsed: float
    stats: JobStats
    backend: str = "sim"
    #: the full result the backend returned — per-rank outputs, the
    #: recorded :class:`~repro.core.scheduler.ScheduleTrace`, and the
    #: fault counters; everything beyond the timing summary above.
    #: (For the two-phase MM app this is its ``MMResult``.)
    result: Optional[JobResult] = None


def run_app(
    app: str,
    dataset,
    n_gpus: int,
    backend: str = "sim",
    schedule=None,
    **executor_kwargs,
) -> AppRun:
    """Run ``app`` over ``dataset`` on ``n_gpus`` workers of ``backend``.

    Dispatches through the :data:`APPS` registry — every
    registered runner shares the uniform signature ``runner(n_gpus,
    dataset, *, backend, schedule, **executor_kwargs)``.

    With the default ``"sim"`` backend ``elapsed`` is modeled cluster
    time; with a real backend (``"local"`` / ``"serial"`` /
    ``"cluster"``) it is measured wall-clock time.

    ``schedule`` replays a recorded chunk schedule
    (:class:`~repro.core.scheduler.ScheduleTrace`; for the two-phase MM
    app, a ``(phase1, phase2)`` pair of traces) so a load-balanced run
    can be re-executed chunk-for-chunk on any backend.  Without it,
    every backend *generates* a schedule — the real ones steal natively
    at runtime — and records it on the result.

    ``executor_kwargs`` go to the backend factory verbatim (e.g.
    ``initial_distribution="single"`` to force an imbalanced start,
    ``fault_plan=FaultPlan(...)`` to arm kill/stall injection and
    recovery, or the local backend's ``stall_seconds`` straggler
    injection).  That includes the observability knobs: pass
    ``obs=Observability()`` and/or ``trace_path="run.trace.jsonl"``
    to record spans, events, and metrics for the run (see
    :mod:`repro.obs`); the bundle comes back on ``result.obs``.
    """
    try:
        spec = APPS[app]
    except KeyError:
        raise ValueError(
            f"unknown app {app!r}; registered: {sorted(APPS)}"
        ) from None
    result = spec.runner(
        n_gpus, dataset, backend=backend, schedule=schedule, **executor_kwargs
    )
    return AppRun(
        app=app,
        size=spec.size_of(dataset),
        n_gpus=n_gpus,
        elapsed=result.elapsed,
        stats=result.stats,
        backend=backend,
        result=result,
    )


__all__ = [
    "APPS", "AppSpec", "AppRun", "run_app",
    # SIO
    "SIOMapper", "SIOReducer", "sio_job", "sio_dataset", "sio_validate",
    "sio_phoenix_workload", "run_sio",
    # WO
    "WOMapper", "WOWarpReducer", "WOThreadReducer", "wo_job", "wo_dataset",
    "wo_validate", "wo_mph", "wo_phoenix_workload", "wo_mars_workload",
    "run_wo", "PARTITIONER_THRESHOLD",
    # KMC
    "KMCMapper", "NaiveKMCMapper", "KMCReducer", "CenterPartitioner", "kmc_job", "kmc_dataset",
    "kmc_extract_centers", "kmc_validate", "kmc_phoenix_workload",
    "kmc_mars_workload", "run_kmc",
    # LR
    "LRMapper", "NaiveLRMapper", "LRReducer", "LR_KEYS", "lr_job", "lr_dataset",
    "lr_extract_sums", "lr_fit", "lr_validate", "lr_phoenix_workload",
    "run_lr",
    # MM
    "MMPhase1Mapper", "MMPhase2Mapper", "MMResult", "mm_dataset",
    "mm_phase1_job", "mm_phase2_job", "run_matmul", "mm_validate",
    "mm_phoenix_workload", "mm_mars_workload",
]

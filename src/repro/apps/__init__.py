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
registry instead of if/elif chains.
"""

from dataclasses import dataclass
from typing import Callable

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

__all__ = [
    "APPS", "AppSpec",
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

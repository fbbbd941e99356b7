"""Real execution backends (vs. the discrete-event sim in S6).

Importing this package registers the ``"local"`` (multiprocessing),
``"serial"`` (in-process), and ``"cluster"`` (TCP socket fabric)
backends with :func:`repro.core.executor.make_executor`; the ``"sim"``
backend is registered by :mod:`repro.core` itself.

    from repro.core import make_executor
    result = make_executor("local", 4).run(job, dataset)
    result = make_executor("cluster", 4).run(job, dataset)
"""

from .cluster import ClusterExecutor
from ..core.dataflow import (
    MapPhaseOutput,
    MapRunner,
    map_worker,
    merge_incoming,
    reduce_worker,
)
from .local import LocalExecutor, WorkerFailure
from .serial import SerialExecutor

__all__ = [
    "ClusterExecutor",
    "LocalExecutor",
    "SerialExecutor",
    "WorkerFailure",
    "MapPhaseOutput",
    "MapRunner",
    "map_worker",
    "merge_incoming",
    "reduce_worker",
]

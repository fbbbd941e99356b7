"""Real execution backends (vs. the discrete-event sim in S6).

Importing this package registers the ``"local"`` (rank processes on
this host), ``"serial"`` (in-process), and ``"cluster"`` (ranks on any
host) backends with :func:`repro.core.executor.make_executor`; the
``"sim"`` backend lives in :mod:`repro.sim.runtime`.  ``local``
and ``cluster`` share one transport, the :mod:`repro.fabric` TCP wire
(``local`` is the cluster backend on loopback).

    from repro.core import make_executor
    result = make_executor("local", 4).run(job, dataset)
    result = make_executor("cluster", 4).run(job, dataset)
"""

from .cluster import ClusterExecutor, LocalExecutor, WorkerFailure
from .serial import SerialExecutor

__all__ = [
    "ClusterExecutor",
    "LocalExecutor",
    "SerialExecutor",
    "WorkerFailure",
]

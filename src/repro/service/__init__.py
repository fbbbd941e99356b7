"""The long-lived job service (ROADMAP item 2).

One-shot ``run_app`` pays executor construction, dataset ingest, and
(for the cluster backend) fabric connection setup on every call.  This
package amortizes all three across jobs: a persistent daemon
(:mod:`repro.service.daemon`) owns a warm
:class:`~repro.service.pool.ExecutorPool` and a
:class:`~repro.service.cache.DatasetCache` keyed off the ``APPS``
registry.  Clients (:mod:`repro.service.client`) submit over the
fabric wire protocol — HMAC-authenticated when the daemon holds a key
— and get back the same ``AppRun`` records one-shot runs produce,
bit-identical outputs included.  A submission names an app, a dataset
(by scalar spec, or shipped) and a worker count, nothing else: the
daemon's backend runs every job, FIFO.

Quick start::

    # terminal 1
    python -m repro.service.daemon --backend local --n-gpus 2

    # terminal 2 (or any process)
    from repro.service import ServiceClient
    with ServiceClient() as svc:
        run = svc.submit("SIO", {"n_elements": 20_000, "seed": 7})
"""

from .cache import DatasetCache
from .client import JobFailed, ServiceClient, submit
from .pool import ExecutorPool

__all__ = [
    "DatasetCache",
    "ExecutorPool",
    "JobFailed",
    "JobService",
    "ServiceClient",
    "submit",
]


def __getattr__(name):
    # Lazy so `python -m repro.service.daemon` does not import the
    # daemon module twice (once here, once as __main__).
    if name == "JobService":
        from .daemon import JobService

        return JobService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

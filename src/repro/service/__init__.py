"""The long-lived job service (ROADMAP item 2).

One-shot ``run_app`` pays executor construction, dataset ingest, and
(for the cluster backend) fabric connection setup on every call.  This
package amortizes all three across jobs: a persistent daemon
(:mod:`repro.service.daemon`) owns a warm
:class:`~repro.service.pool.ExecutorPool`, a
:class:`~repro.service.cache.DatasetCache` keyed off the ``APPS``
registry, and one shared
:class:`~repro.core.scheduler.JobChunkAuthority` giving every
concurrent job its own chunk namespace.  Clients
(:mod:`repro.service.client`) submit over the fabric wire protocol —
HMAC-authenticated when the daemon holds a key — and get back the same
``AppRun`` records one-shot runs produce, bit-identical outputs
included.

Quick start::

    # terminal 1
    python -m repro.service.daemon --backend local --n-gpus 2

    # terminal 2 (or any process)
    from repro.service import ServiceClient
    with ServiceClient() as svc:
        run = svc.submit("SIO", {"n_elements": 20_000, "seed": 7})

:mod:`repro.service.loadgen` drives many concurrent clients against a
daemon and reports jobs/sec with p50/p99 latency.
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

"""Runtime observability: span/event tracing, metrics, run inspection.

The public handle is :class:`Observability` — one per run, bundling a
:class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry`.  Pass one (or just a
``trace_path=``) to :func:`repro.make_executor` /
:func:`repro.apps.run_app`::

    from repro import make_executor
    from repro.obs import Observability

    obs = Observability()
    with make_executor("local", 4, obs=obs, trace_path="run.trace.jsonl") as ex:
        result = ex.run(job, dataset=ds)
    print(obs.metrics.histogram("grant_latency_s").summary())

then inspect the written trace::

    python -m repro.obs.view run.trace.jsonl
    python -m repro.obs.view run.trace.jsonl --chrome run.chrome.json

(the Chrome export loads at https://ui.perfetto.dev).

Tracing is **off by default** and passive when on: instrumentation
records timestamps and counts but never changes scheduling or data
movement, so traced runs stay bit-identical to untraced runs — the
parity contract the test suite enforces.  Components that may or may
not be observed hold :data:`NULL_OBS` instead of ``None``: its tracer
and metrics are shared no-ops, so disabled hot paths pay one
attribute lookup and an empty call.
"""

from __future__ import annotations

import uuid
from typing import Any, Dict, Optional

from .metrics import (
    BYTES_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    SECONDS_BUCKETS,
)
from .trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    chrome_trace,
    read_jsonl,
    write_jsonl,
)

__all__ = [
    "BYTES_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_OBS",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "SECONDS_BUCKETS",
    "Tracer",
    "chrome_trace",
    "read_jsonl",
    "write_jsonl",
]


class Observability:
    """One run's tracer + metrics registry, merged at the driver.

    Worker processes build their own instance, record into it, and
    ship :meth:`export` payloads back over the result channel; the
    driver :meth:`absorb`\\ s them into the run-level instance that
    executors expose on :attr:`repro.core.executor.JobResult.obs`.
    """

    enabled = True

    def __init__(
        self,
        run_id: Optional[str] = None,
        job_id: Optional[str] = None,
    ) -> None:
        self.run_id = run_id or uuid.uuid4().hex[:12]
        #: service-job namespace: stamped on every trace record and
        #: metrics snapshot so interleaved multi-job traces stay
        #: attributable (None outside a job service)
        self.job_id = job_id
        self.tracer = Tracer(job_id=job_id)
        self.metrics = MetricsRegistry(job_id=job_id)
        self.meta: Dict[str, Any] = {}

    # -- lifecycle ----------------------------------------------------

    def reset(self) -> None:
        """Drop recorded data so one instance can observe a fresh run."""
        self.tracer.clear()
        self.metrics.clear()
        self.meta = {}

    def set_job(self, job_id: Optional[str]) -> None:
        """Re-namespace the bundle for the next observed job.

        A pool-managed executor's bundle observes many jobs back to
        back; the service calls this per lease so each run's records
        and snapshots carry the job they belong to.
        """
        self.job_id = job_id
        self.tracer.job_id = job_id
        self.metrics.job_id = job_id

    def finish(
        self,
        backend: str,
        stats: Any = None,
        clock: str = "wall",
        **extra: Any,
    ) -> None:
        """Stamp run-level metadata once the job completes.

        ``stats`` is the run's :class:`~repro.core.stats.JobStats`;
        its dict form rides in the trace header so the view CLI can
        print the authoritative Figure-2 stage table.
        """
        self.meta.update({
            "run_id": self.run_id,
            "backend": backend,
            "clock": clock,
            **extra,
        })
        if self.job_id is not None:
            self.meta.setdefault("job_id", self.job_id)
        if stats is not None:
            self.meta.update({
                "job": stats.job_name,
                "n_workers": stats.n_gpus,
                "elapsed": stats.elapsed,
                "stats": stats.to_dict(),
            })

    # -- worker <-> driver shipping -----------------------------------

    def export(self) -> Dict[str, Any]:
        """A picklable payload of everything recorded so far."""
        return {
            "trace": self.tracer.records,
            "metrics": self.metrics.snapshot(),
        }

    def absorb(self, payload: Optional[Dict[str, Any]]) -> None:
        """Merge a worker's :meth:`export` payload."""
        if not payload:
            return
        self.tracer.absorb(payload.get("trace"))
        self.metrics.absorb(payload.get("metrics"))

    # -- serialization ------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        write_jsonl(
            path,
            self.meta or {"run_id": self.run_id},
            self.tracer.sorted_records(),
            self.metrics.snapshot(),
        )

    def write_chrome(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(self.tracer.records, self.meta), fh)


class _NullObservability:
    """The disabled bundle — see :data:`NULL_OBS`."""

    enabled = False
    run_id = None
    job_id = None
    tracer = NULL_TRACER
    metrics = NULL_METRICS
    meta: Dict[str, Any] = {}

    def reset(self) -> None:
        pass

    def set_job(self, job_id: Optional[str]) -> None:
        pass

    def finish(self, backend: str, stats: Any = None, **extra: Any) -> None:
        pass

    def export(self) -> None:
        return None

    def absorb(self, payload: Optional[Dict[str, Any]]) -> None:
        pass


#: Shared no-op bundle: components hold this instead of ``None``.
NULL_OBS = _NullObservability()

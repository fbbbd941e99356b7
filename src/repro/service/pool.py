"""Warm executor pool: reuse backends across jobs instead of rebuilding.

One-shot ``run_app`` pays full executor construction per call.  The
pool inverts that for the job service: executors are built once per
*configuration* — ``(backend, n_workers, kwargs)`` — leased to a job,
and returned warm for the next job with the same shape.  A warm
``local``/``cluster`` lease carries its live coordinator and rank
processes (they belong to the executor from its first ``run()`` to
``close()``), so a warm job pays no fork and no registration; every
lease also keeps the instance (no re-validation or registry dispatch)
and the daemon-resident imports.  Retiring an executor closes it,
which ends its ranks.

Every lease is stamped with the daemon's shared
:class:`~repro.core.scheduler.JobChunkAuthority` (when the pool has
one), so runs on pooled executors open job-scoped chunk namespaces
behind the one multi-job front rather than private services.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..core.executor import Executor, make_executor
from ..core.scheduler import JobChunkAuthority
from ..obs import NULL_OBS
from ..util.freeze import freeze_kwargs

__all__ = ["ExecutorPool"]

#: A lease key: backend name, worker count, and the frozen kwargs.
PoolKey = Tuple[str, int, Tuple]

#: Idle executors shelved per configuration; a release beyond this
#: retires (closes) the surplus instance instead.
MAX_IDLE_PER_KEY = 4


class ExecutorPool:
    """Reusable executors keyed by configuration; thread-safe.

    ``lease()`` hands out a warm idle instance when one exists
    (``pool_warm_hits``) and builds cold otherwise
    (``pool_cold_builds``); ``release()`` resets the instance and
    shelves it for the next job, retiring surplus instances beyond
    :data:`MAX_IDLE_PER_KEY` via the executors' idempotent ``close()``.
    """

    def __init__(
        self,
        chunk_authority: Optional[JobChunkAuthority] = None,
        obs=None,
    ) -> None:
        self.chunk_authority = chunk_authority
        self.obs = obs or NULL_OBS
        self._idle: Dict[PoolKey, List[Executor]] = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- leasing -----------------------------------------------------------

    def lease(self, backend: str, n_workers: int, **kwargs) -> Executor:
        """A runnable executor for this configuration, warm if possible."""
        # kwargs may be unhashable (FaultPlan), so key on their content;
        # repro.util.freeze refuses live objects it cannot key soundly.
        key: PoolKey = (backend, int(n_workers), freeze_kwargs(kwargs))
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot lease from a closed ExecutorPool")
            stack = self._idle.get(key)
            ex = stack.pop() if stack else None
        if ex is not None:
            self.obs.metrics.counter("pool_warm_hits").inc()
        else:
            self.obs.metrics.counter("pool_cold_builds").inc()
            ex = make_executor(backend, n_workers, **kwargs)
            ex._pool_key = key
        # The daemon's shared multi-job chunk front; runs on this lease
        # open job-scoped namespaces instead of private services.
        ex.chunk_authority = self.chunk_authority
        return ex

    def release(self, executor: Executor) -> None:
        """Return a lease; the instance is reset and shelved (or retired)."""
        key = getattr(executor, "_pool_key", None)
        if executor.closed or key is None:
            return
        try:
            executor.reset()
        except Exception:
            # A lease that cannot be returned to a runnable state must
            # not be shelved (the next lease would inherit the broken
            # state) nor leaked open — retire it and surface the reset
            # failure to the caller.
            executor.close()
            raise
        executor.chunk_authority = None
        with self._lock:
            stack = self._idle.setdefault(key, [])
            if self._closed or len(stack) >= MAX_IDLE_PER_KEY:
                retire = True
            else:
                retire = False
                stack.append(executor)
        if retire:
            executor.close()

    # -- lifecycle ---------------------------------------------------------

    @property
    def idle_count(self) -> int:
        with self._lock:
            return sum(len(s) for s in self._idle.values())

    def close(self) -> None:
        """Retire every idle executor; later releases retire too."""
        with self._lock:
            self._closed = True
            stacks = list(self._idle.values())
            self._idle = {}
        for stack in stacks:
            for ex in stack:
                ex.close()

    def __enter__(self) -> "ExecutorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

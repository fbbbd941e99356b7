"""Dataset cache: repeat traffic skips ingest.

Jobs submitted to the service name their dataset as a *spec* — the
keyword arguments of the app's registered ``*_dataset`` factory
(:attr:`repro.apps.AppSpec.dataset`).  The factories are deterministic
(same spec, same data), so ``(app, spec)`` is a sound cache key: the
first submission builds (ingests) the dataset, later identical
submissions reuse the resident object with near-zero ingest time — the
MapSQ-style amortization the service exists for.  A built dataset
holds its scalars, not its chunks: jobs over an entry resolve to
descriptor chunks whose payloads the ranks build at grant time, so an
entry stays small no matter the dataset.

LRU with a bounded entry count.  Entries are shared across concurrent
jobs; datasets are treated as immutable after construction (the
backends already rely on that for replay).  Builds run under a
*per-key* lock: concurrent identical submissions still wait for one
ingest (build-once), but a slow ingest never blocks hits — or other
builds — on different keys.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Tuple

from ..apps import APPS
from ..obs import NULL_OBS
from ..util.freeze import freeze_kwargs

__all__ = ["DatasetCache"]


class DatasetCache:
    """LRU of built datasets keyed by ``(app, frozen spec)``."""

    def __init__(self, max_entries: int = 8, obs=None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self.obs = obs or NULL_OBS
        self._entries: "OrderedDict[Tuple[str, Tuple], Any]" = OrderedDict()
        #: guards ``_entries`` and ``_building`` only — never held
        #: across a dataset build
        self._lock = threading.Lock()
        #: one in-flight build lock per key, discarded after the build
        self._building: Dict[Tuple[str, Tuple], threading.Lock] = {}

    def get(self, app: str, spec: Dict[str, Any]) -> Tuple[Any, bool]:
        """The dataset for ``(app, spec)`` and whether it was a hit.

        Misses build through the app's registered factory and record
        the build (ingest) time in the ``dataset_build_s`` histogram;
        hits only bump the LRU order.
        """
        try:
            factory = APPS[app].dataset
        except KeyError:
            raise ValueError(
                f"unknown app {app!r}; registered: {sorted(APPS)}"
            ) from None
        # A content-based key, shared with the executor pool: see
        # repro.util.freeze for why reprs would miss or collide.
        key = (app, freeze_kwargs(spec))
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.obs.metrics.counter("dataset_cache_hits").inc()
                return self._entries[key], True
            build_lock = self._building.get(key)
            if build_lock is None:
                build_lock = self._building[key] = threading.Lock()
        # Serialise identical submissions on the per-key lock (one
        # ingest, the rest wait and hit); different keys build — and
        # hit — concurrently.
        with build_lock:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self.obs.metrics.counter("dataset_cache_hits").inc()
                    return self._entries[key], True
            t0 = time.perf_counter()
            dataset = factory(**spec)
            self.obs.metrics.histogram("dataset_build_s").observe(
                time.perf_counter() - t0
            )
            with self._lock:
                self.obs.metrics.counter("dataset_cache_misses").inc()
                self._entries[key] = dataset
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                self._building.pop(key, None)
            return dataset, False

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

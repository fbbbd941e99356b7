"""Low-overhead span/event tracing for MapReduce runs.

A :class:`Tracer` buffers timestamped **spans** (an interval with a
duration: a chunk map, a sort, a shuffle send) and **point events**
(a steal, a reclaim, a respawn) as plain dicts.  Worker processes
record into their own tracer and ship the buffered records back to
the driver over the existing result channels — the local backend's
result queue, the fabric's ``RESULT`` frame — where they are merged
into the run's tracer.  The merged buffer serializes to JSONL
(:func:`write_jsonl`) and to the Chrome ``trace_event`` format
(:func:`chrome_trace`), which loads directly at
https://ui.perfetto.dev or ``chrome://tracing``.

Timestamps come from a pluggable ``clock`` callable — ``time.time``
by default, so records from different processes on one host share a
timebase; the sim backend swaps in its modeled clock (``env.now``)
and marks the trace meta accordingly.

When tracing is off, callers hold :data:`NULL_TRACER`, whose methods
are no-ops: a disabled hot path pays one attribute lookup and an
empty call, nothing else.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "chrome_trace",
    "read_jsonl",
    "write_jsonl",
]

Record = Dict[str, Any]


class Tracer:
    """A per-run (or per-rank) append-only buffer of spans and events.

    Thread-safe: the job service's runner threads append to the one
    tracer of the service's observability bundle.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.time,
        rank: Optional[int] = None,
        job_id: Optional[str] = None,
    ) -> None:
        self.clock = clock
        self.rank = rank  #: default rank attribution for worker-side tracers
        #: default job attribution (multi-job service runs): stamped on
        #: every record this tracer writes *and* on absorbed worker
        #: records that lack one, so interleaved jobs' spans never
        #: cross-attribute.  None (one-shot runs) adds no field at all.
        self.job_id = job_id
        self._records: List[Record] = []
        self._lock = threading.Lock()
        self._seq = 0

    # -- recording ----------------------------------------------------

    def add_span(
        self,
        name: str,
        t0: float,
        t1: float,
        rank: Optional[int] = None,
        chunk: Optional[int] = None,
        job: Optional[str] = None,
        **args: Any,
    ) -> None:
        """Record a completed interval with explicit endpoints.

        Explicit endpoints (rather than "now") let the sim record
        modeled-time spans and let callers reuse timing they already
        take for :class:`~repro.core.stats.WorkerStats`.
        """
        rec: Record = {
            "ev": "span",
            "name": name,
            "ts": t0,
            "dur": t1 - t0,
            "rank": self.rank if rank is None else rank,
            "chunk": chunk,
        }
        job = self.job_id if job is None else job
        if job is not None:
            rec["job"] = job
        if args:
            rec["args"] = args
        with self._lock:
            rec["seq"] = self._seq
            self._seq += 1
            self._records.append(rec)

    @contextmanager
    def span(
        self,
        name: str,
        rank: Optional[int] = None,
        chunk: Optional[int] = None,
        **args: Any,
    ):
        """Record the enclosed block as a span, timed by ``self.clock``."""
        t0 = self.clock()
        try:
            yield
        finally:
            self.add_span(name, t0, self.clock(), rank=rank, chunk=chunk, **args)

    def event(
        self,
        name: str,
        rank: Optional[int] = None,
        chunk: Optional[int] = None,
        ts: Optional[float] = None,
        job: Optional[str] = None,
        **args: Any,
    ) -> None:
        """Record a point event, stamped by ``self.clock`` unless given."""
        rec: Record = {
            "ev": "event",
            "name": name,
            "ts": self.clock() if ts is None else ts,
            "rank": self.rank if rank is None else rank,
            "chunk": chunk,
        }
        job = self.job_id if job is None else job
        if job is not None:
            rec["job"] = job
        if args:
            rec["args"] = args
        with self._lock:
            rec["seq"] = self._seq
            self._seq += 1
            self._records.append(rec)

    # -- merging / access ---------------------------------------------

    def absorb(self, records: Optional[Iterable[Record]]) -> None:
        """Merge another tracer's exported records (e.g. from a worker).

        Worker-side tracers don't know which service job their run
        belongs to; when this (driver-side) tracer does, absorbed
        records missing a ``job`` field inherit it here.
        """
        if not records:
            return
        with self._lock:
            for rec in records:
                rec = dict(rec)
                if self.job_id is not None:
                    rec.setdefault("job", self.job_id)
                rec["seq"] = self._seq
                self._seq += 1
                self._records.append(rec)

    @property
    def records(self) -> List[Record]:
        with self._lock:
            return list(self._records)

    def sorted_records(self) -> List[Record]:
        """Records in timeline order (stable across merges)."""
        return sorted(self.records, key=lambda r: (r["ts"], r.get("seq", 0)))

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._seq = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class NullTracer:
    """The disabled tracer: every method is a no-op."""

    enabled = False
    rank = None
    job_id = None
    _NULL_CTX = None  # set below; a reusable no-op context manager

    def add_span(self, *args: Any, **kwargs: Any) -> None:
        pass

    def span(self, *args: Any, **kwargs: Any):
        return _NULL_CTX

    def event(self, *args: Any, **kwargs: Any) -> None:
        pass

    def absorb(self, records: Optional[Iterable[Record]]) -> None:
        pass

    @property
    def records(self) -> List[Record]:
        return []

    def sorted_records(self) -> List[Record]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


class _NullContext:
    def __enter__(self):
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_CTX = _NullContext()

#: Shared no-op tracer: hold this instead of ``None`` so hot paths
#: never branch on "is tracing on?".
NULL_TRACER = NullTracer()


# -- serialization ----------------------------------------------------

def write_jsonl(
    path: str,
    meta: Dict[str, Any],
    records: Iterable[Record],
    metrics: Optional[Dict[str, Any]] = None,
) -> None:
    """Serialize one run: a meta header line, one line per record,
    and a trailing metrics-snapshot line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"ev": "meta", **meta}) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
        if metrics is not None:
            fh.write(json.dumps({"ev": "metrics", "metrics": metrics}) + "\n")


def read_jsonl(path: str) -> Dict[str, Any]:
    """Load a trace file into ``{"meta", "records", "metrics"}``."""
    meta: Dict[str, Any] = {}
    records: List[Record] = []
    metrics: Optional[Dict[str, Any]] = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.get("ev")
            if kind == "meta":
                meta = {k: v for k, v in obj.items() if k != "ev"}
            elif kind == "metrics":
                metrics = obj.get("metrics")
            else:
                records.append(obj)
    return {"meta": meta, "records": records, "metrics": metrics}


def chrome_trace(
    records: Iterable[Record],
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Convert records to the Chrome ``trace_event`` JSON object.

    Spans become complete ("ph": "X") events, point events become
    instants ("ph": "i"); each rank is a tid (the driver is tid 0) so
    Perfetto renders one swim lane per rank.  Timestamps are rebased
    to the earliest record and expressed in microseconds, as the
    format requires.
    """
    records = sorted(records, key=lambda r: (r["ts"], r.get("seq", 0)))
    t0 = records[0]["ts"] if records else 0.0
    meta = meta or {}
    pid = 0

    def tid_of(rec: Record) -> int:
        rank = rec.get("rank")
        return 0 if rank is None else int(rank) + 1

    events: List[Dict[str, Any]] = [
        {
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": meta.get("job", "repro") or "repro"},
        },
        {
            "ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
            "args": {"name": "driver"},
        },
    ]
    seen_ranks = sorted(
        {r["rank"] for r in records if r.get("rank") is not None}
    )
    for rank in seen_ranks:
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid,
            "tid": int(rank) + 1, "args": {"name": f"rank {rank}"},
        })
    for rec in records:
        args = dict(rec.get("args") or {})
        if rec.get("chunk") is not None:
            args["chunk"] = rec["chunk"]
        ev: Dict[str, Any] = {
            "name": rec["name"],
            "pid": pid,
            "tid": tid_of(rec),
            "ts": (rec["ts"] - t0) * 1e6,
            "args": args,
        }
        if rec.get("ev") == "span":
            ev["ph"] = "X"
            ev["dur"] = max(rec.get("dur", 0.0), 0.0) * 1e6
        else:
            ev["ph"] = "i"
            ev["s"] = "t"
        events.append(ev)
    return {"traceEvents": events, "displayTimeUnit": "ms"}

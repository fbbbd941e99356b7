"""Run-inspection CLI: ``python -m repro.obs.view run.trace.jsonl``.

Prints, from one JSONL trace file:

* the run header (app, backend, workers, clock domain, elapsed);
* the Figure-2 per-rank stage table, from the ``JobStats`` embedded
  in the trace meta (the authoritative end-of-job accounting);
* per-rank span timelines (chunk maps, sorts, shuffles, waits);
* the steal / reclaim / respawn chronology;
* metric summaries (counters, and p50/p95/p99 per histogram).

``--chrome OUT`` additionally converts the trace to the Chrome
``trace_event`` format, viewable at https://ui.perfetto.dev.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Optional

from ..core.stats import STAGES
from .metrics import Histogram
from .trace import chrome_trace, read_jsonl

__all__ = ["main", "render"]

#: Point events worth a line in the chronology (grants are shown only
#: with ``--grants``; a big run has one per chunk incarnation).
CHRONOLOGY_EVENTS = frozenset({
    "steal", "reclaim", "rank_dead", "respawn", "rejoin", "batch_resend",
})


def _fmt_seconds(v: float) -> str:
    return f"{v * 1e3:.3f}ms" if v < 1.0 else f"{v:.3f}s"


def _fmt_metric(name: str, v: float) -> str:
    if name.endswith("_s"):
        return _fmt_seconds(v)
    if "bytes" in name:
        if v >= 1 << 20:
            return f"{v / (1 << 20):.1f}MiB"
        if v >= 1 << 10:
            return f"{v / (1 << 10):.1f}KiB"
        return f"{v:.0f}B"
    return f"{v:g}"


def _stage_table(stats: Dict[str, Any]) -> List[str]:
    header = "rank".ljust(6) + "".join(s.rjust(11) for s in STAGES) + "total".rjust(11)
    lines = ["stage seconds (Figure-2 buckets)", header]
    totals = {s: 0.0 for s in STAGES}
    for w in sorted(stats.get("workers", []), key=lambda w: w["rank"]):
        secs = w.get("stage_seconds", {})
        row = str(w["rank"]).ljust(6)
        for s in STAGES:
            totals[s] += secs.get(s, 0.0)
            row += f"{secs.get(s, 0.0):11.4f}"
        row += f"{sum(secs.values()):11.4f}"
        lines.append(row)
    denom = sum(totals.values())
    row = "all".ljust(6)
    for s in STAGES:
        row += f"{totals[s]:11.4f}"
    row += f"{denom:11.4f}"
    lines.append(row)
    if denom:
        row = "share".ljust(6)
        for s in STAGES:
            row += f"{totals[s] / denom:10.1%} "
        lines.append(row.rstrip())
    return lines


def _timelines(records: List[Dict[str, Any]], t0: float, limit: int) -> List[str]:
    # Group by (job, rank): a multi-job service trace interleaves
    # several jobs' spans, and rank 2 of job A is not rank 2 of job B.
    # Single-job traces have no "job" field, collapsing this to the
    # familiar per-rank grouping.
    by_lane: Dict[Any, List[Dict[str, Any]]] = {}
    for rec in records:
        if rec.get("ev") == "span":
            by_lane.setdefault((rec.get("job"), rec.get("rank")), []).append(rec)
    if not by_lane:
        return []
    multi_job = len({job for job, _rank in by_lane}) > 1 or any(
        job is not None for job, _rank in by_lane
    )
    lines = ["per-rank timelines (spans; t=0 at first record)"]
    for job, rank in sorted(
        by_lane, key=lambda k: (k[0] is None, k[0], k[1] is None, k[1])
    ):
        label = "driver" if rank is None else f"rank {rank}"
        if multi_job:
            label = f"job {job or '?'} · {label}"
        spans = by_lane[(job, rank)]
        lines.append(f"{label}: {len(spans)} span(s)")
        shown = spans if limit <= 0 else spans[:limit]
        for rec in shown:
            chunk = f" chunk={rec['chunk']}" if rec.get("chunk") is not None else ""
            args = rec.get("args") or {}
            extra = "".join(f" {k}={v}" for k, v in args.items())
            lines.append(
                f"  +{rec['ts'] - t0:10.6f}s {_fmt_seconds(max(rec.get('dur', 0.0), 0.0)):>10} "
                f"{rec['name']}{chunk}{extra}"
            )
        if limit > 0 and len(spans) > limit:
            lines.append(f"  ... {len(spans) - limit} more")
    return lines


def _chronology(
    records: List[Dict[str, Any]], t0: float, include_grants: bool
) -> List[str]:
    names = CHRONOLOGY_EVENTS | {"grant"} if include_grants else CHRONOLOGY_EVENTS
    events = [
        r for r in records
        if r.get("ev") == "event" and r.get("name") in names
    ]
    if not events:
        return []
    lines = ["chronology (point events)"]
    for rec in events:
        rank = rec.get("rank")
        who = "driver" if rank is None else f"rank={rank}"
        if rec.get("job") is not None:
            who = f"job={rec['job']} {who}"
        chunk = f" chunk={rec['chunk']}" if rec.get("chunk") is not None else ""
        args = rec.get("args") or {}
        extra = "".join(f" {k}={v}" for k, v in args.items())
        lines.append(
            f"  +{rec['ts'] - t0:10.6f}s {rec['name']:<16} {who}{chunk}{extra}"
        )
    return lines


def _metrics_summary(metrics: Optional[Dict[str, Any]]) -> List[str]:
    if not metrics:
        return []
    lines = ["metrics"]
    if metrics.get("job_id"):
        lines[0] = f"metrics (job {metrics['job_id']})"
    counters = metrics.get("counters") or {}
    if counters:
        lines.append("  counters: " + "  ".join(
            f"{k}={v}" for k, v in sorted(counters.items())
        ))
    gauges = metrics.get("gauges") or {}
    if gauges:
        lines.append("  gauges:   " + "  ".join(
            f"{k}={v:g}" for k, v in sorted(gauges.items())
        ))
    for name, d in sorted((metrics.get("histograms") or {}).items()):
        h = Histogram.from_dict(d)
        s = h.summary()
        lines.append(
            f"  {name:<24} n={s['count']:<6} "
            f"p50={_fmt_metric(name, s['p50'])} "
            f"p95={_fmt_metric(name, s['p95'])} "
            f"p99={_fmt_metric(name, s['p99'])} "
            f"max={_fmt_metric(name, s['max'])}"
        )
    return lines


def render(
    trace: Dict[str, Any], limit: int = 20, include_grants: bool = False
) -> str:
    """The full report for one loaded trace, as a string."""
    meta = trace.get("meta") or {}
    records = sorted(
        trace.get("records") or [],
        key=lambda r: (r["ts"], r.get("seq", 0)),
    )
    t0 = records[0]["ts"] if records else 0.0
    clock = meta.get("clock", "wall")
    job_id = f" [job {meta['job_id']}]" if meta.get("job_id") else ""
    out: List[str] = [
        f"run {meta.get('run_id', '?')}{job_id} — {meta.get('job', '?')} on "
        f"{meta.get('backend', '?')} ×{meta.get('n_workers', '?')} "
        f"({clock} clock), elapsed {meta.get('elapsed', 0.0):.4f}s, "
        f"{len(records)} record(s)"
    ]
    if meta.get("stats"):
        out.append("")
        out.extend(_stage_table(meta["stats"]))
    timeline = _timelines(records, t0, limit)
    if timeline:
        out.append("")
        out.extend(timeline)
    chrono = _chronology(records, t0, include_grants)
    if chrono:
        out.append("")
        out.extend(chrono)
    summary = _metrics_summary(trace.get("metrics"))
    if summary:
        out.append("")
        out.extend(summary)
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.view",
        description="Inspect a run trace recorded with trace_path=/obs=.",
    )
    parser.add_argument("trace", help="path to a run.trace.jsonl file")
    parser.add_argument(
        "--limit", type=int, default=20,
        help="max spans to print per rank (0 = all; default 20)",
    )
    parser.add_argument(
        "--grants", action="store_true",
        help="include every grant event in the chronology",
    )
    parser.add_argument(
        "--chrome", metavar="OUT",
        help="also write a Chrome trace_event JSON (open in Perfetto)",
    )
    ns = parser.parse_args(argv)

    trace = read_jsonl(ns.trace)
    print(render(trace, limit=ns.limit, include_grants=ns.grants))
    if ns.chrome:
        with open(ns.chrome, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(trace["records"], trace["meta"]), fh)
        print(f"\nchrome trace written to {ns.chrome} "
              "(open at https://ui.perfetto.dev)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())

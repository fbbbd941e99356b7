#!/usr/bin/env python3
"""Judge two ``run.py --json`` files against the benchmark's own bounds.

    python3 benchmarks/perf/compare.py A.json B.json

A is the parent, B the change.  One row per (workload, end-to-end
metric): both medians over the files' runs, how much worse B is as a
share of A, the run-to-run spread (IQR / median, the wider of the two
sides), the bound, and a verdict:

* ``worse``       B's median is worse than A's by more than the bound
* ``unresolved``  the spread is wider than the bound, so the pair
                  cannot show a regression of that size either way
* ``better``      B's median is better by more than A's own spread
* ``same``        none of the above

Per-layer metrics of traced runs are listed with their change and not
judged.  Files whose fingerprints differ are refused.  Exit status is
non-zero on any ``worse`` or any rise in the failed share.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Tuple

FINGERPRINT_KEYS = ("cores", "cpu_model", "python", "numpy", "seeds", "sizes")


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint_mismatches(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    out = [
        f"{key}: {a['fingerprint'].get(key)!r} vs {b['fingerprint'].get(key)!r}"
        for key in FINGERPRINT_KEYS
        if a["fingerprint"].get(key) != b["fingerprint"].get(key)
    ]
    for key in ("run_seconds", "quick", "end_to_end"):
        if a.get(key) != b.get(key):
            out.append(f"{key} differs")
    return out


def values_of(doc: Dict[str, Any], trace: int) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> one value per run``, in run order."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in doc["runs"]:
        if run["trace"] != trace:
            continue
        for name, m in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def spread(values: List[float]) -> float:
    """IQR as a share of the median (0 when fewer than 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def failed_share(doc: Dict[str, Any]) -> float:
    attempted = sum(r["attempted"] for r in doc["runs"])
    return sum(r["failed"] for r in doc["runs"]) / attempted if attempted else 0.0


def judge(a: List[float], b: List[float], better: str, bound: float):
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    worse_by = change if better == "lower" else -change
    wide = max(spread(a), spread(b))
    if wide > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    elif -worse_by > spread(a) and worse_by < 0:
        verdict = "better"
    else:
        verdict = "same"
    return med_a, med_b, worse_by, wide, verdict


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = load(argv[0]), load(argv[1])
    mismatches = fingerprint_mismatches(a, b)
    if mismatches:
        print("refusing to compare: the files were not measured alike")
        for line in mismatches:
            print(f"  {line}")
        return 2

    status = 0
    for label, path, doc in (("A", argv[0], a), ("B", argv[1], b)):
        print(f"{label} {path} ({doc.get('git_sha', '?')[:12]})")
    print(f"{'workload':22s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>9s} {'spread':>8s} {'bound':>6s}  verdict")
    va, vb = values_of(a, 0), values_of(b, 0)
    for metric in a["end_to_end"]:
        for (workload, name), xs in va.items():
            if name != metric["name"] or (workload, name) not in vb:
                continue
            med_a, med_b, worse_by, wide, verdict = judge(
                xs, vb[(workload, name)], metric["better"], metric["bound"])
            if verdict == "worse":
                status = 1
            note = "" if min(len(xs), len(vb[(workload, name)])) > 1 else "  (1 run: no spread)"
            print(f"{workload:22s} {name:18s} {med_a:12.5g} {med_b:12.5g} "
                  f"{worse_by:+9.1%} {wide:8.1%} {metric['bound']:6.0%}  {verdict}{note}")

    la, lb = values_of(a, 1), values_of(b, 1)
    if la and lb:
        print("\nper-layer (traced runs; listed, not judged)")
        for key in la:
            if key in lb:
                med_a, med_b = statistics.median(la[key]), statistics.median(lb[key])
                change = (med_b - med_a) / abs(med_a) if med_a else 0.0
                print(f"{key[0]:22s} {key[1]:40s} {med_a:12.5g} {med_b:12.5g} {change:+9.1%}")

    fa, fb = failed_share(a), failed_share(b)
    print(f"\nfailed share: A {fa:.4f}  B {fb:.4f}")
    if fb > fa:
        print("failed share rose")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

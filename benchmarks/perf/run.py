#!/usr/bin/env python3
"""The repo's benchmark: five workloads, six end-to-end metrics, and a
traced run with per-layer probes.  ``BENCHMARK.json`` names everything
this prints; see ``README.md`` beside this file.

    python3 benchmarks/perf/run.py --workload sio_shuffle_cluster --seed 1 \\
        --seconds 15 --trace 0

An untraced run spawns three fresh children in sequence.  Each pays
set-up, runs one cold job, then loops jobs until its timed intervals
fill a third of ``--seconds``; samples are pooled over the children.
A traced run (``--trace 1``) spawns one child with bench-side spans
around the public calls, plus a probes child for the job-free layer
probes, the daemon and the simulator.  Every job's output is verified;
the last stdout line is the machine-readable result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import perf_env

MANIFEST = perf_env.ROOT / "BENCHMARK.json"
CHILDREN = 3            #: fresh children per untraced run
RUN_WALL_CAP_S = 120.0  #: past this no further child is started (a run must end within 180 s)


# -- children ------------------------------------------------------------------

def failed_child(reason: str) -> Dict[str, Any]:
    """The report of a child that left none: one attempt, one failure."""
    return {"attempted": 1, "failed": 1, "job_walls": [], "interval_s": 0.0,
            "cpu_s": 0.0, "layers": {}, "failures": [reason]}


class Spawner:
    def __init__(self) -> None:
        self.tmp = perf_env.TMP / f"run-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = perf_env.child_env()
        self.count = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            perf_env.TMP.rmdir()  # only when no concurrent run shares it
        except OSError:
            pass

    def child(self, role: str, workload: str, seed: int, seconds: float, *,
              trace: int, quick: bool, oracle: bool) -> Dict[str, Any]:
        """Run one child to completion; always returns a report."""
        self.count += 1
        out = self.tmp / f"child{self.count}.json"
        log = self.tmp / f"child{self.count}.log"
        deadline = min(150.0, 60.0 + 4.0 * seconds)
        with open(log, "wb") as log_fh:
            cmd = [
                sys.executable, str(perf_env.PERF_DIR / "perf_child.py"),
                "--role", role, "--workload", workload, "--seed", str(seed),
                "--seconds", repr(seconds), "--trace", str(trace),
                "--quick", str(int(quick)), "--oracle", str(int(oracle)),
                "--out", str(out), "--spawned-at", repr(time.monotonic()),
            ]
            proc = subprocess.Popen(
                cmd, env=self.env, cwd=str(perf_env.ROOT), stdin=subprocess.DEVNULL,
                stdout=log_fh, stderr=subprocess.STDOUT, start_new_session=True,
            )
            try:
                code: Optional[int] = proc.wait(timeout=deadline)
            except subprocess.TimeoutExpired:
                code = None
            # The child led its own group: nothing of it outlives this call.
            perf_env.reap_group(proc.pid)
            proc.wait()
        if out.is_file():
            with open(out, encoding="utf-8") as fh:
                return json.load(fh)
        reason = f"{role} child left no report (exit {code}"
        marker = Path(str(out) + ".hung")
        if marker.is_file():
            reason += f"; {marker.read_text()}"
        elif code is None:
            reason += f"; killed after {deadline:.0f} s"
        return failed_child(reason + ")\n" + log.read_text(errors="replace")[-800:])


# -- aggregation ---------------------------------------------------------------

def tail_of(walls: List[float]):
    """The highest percentile with at least ten samples beyond it (the
    median when there are fewer than 21): ``(value, percentile)``."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    k = n - 11
    return ordered[k], 100.0 * k / (n - 1)


def end_to_end(children: List[Dict[str, Any]]) -> Dict[str, float]:
    walls = [w for c in children for w in c["job_walls"]]
    if not walls:
        return {}
    jobs = len(walls)
    return {
        "job_wall_s": statistics.median(walls),
        "job_wall_tail_s": tail_of(walls)[0],
        "jobs_per_s": jobs / sum(c["interval_s"] for c in children),
        "cpu_s_per_job": sum(c["cpu_s"] for c in children) / jobs,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children
                                         if "peak_rss_mb" in c),
        "setup_s": statistics.median(c["setup_s"] for c in children if "setup_s" in c),
    }


def run_once(spawner: Spawner, manifest: Dict[str, Any], workload: str, seed: int,
             seconds: float, trace: int, quick: bool) -> Dict[str, Any]:
    """One run of one workload: spawn its children, fold their reports."""
    t_start = time.monotonic()
    load_start = perf_env.loadavg()
    share = seconds / CHILDREN
    children: List[Dict[str, Any]] = []
    if trace:
        children.append(spawner.child("workload", workload, seed, share,
                                      trace=1, quick=quick, oracle=True))
        children.append(spawner.child("probes", workload, seed, share,
                                      trace=1, quick=quick, oracle=False))
    else:
        for i in range(1 if quick else CHILDREN):
            if time.monotonic() - t_start > RUN_WALL_CAP_S:
                children.append(failed_child("not started: the run passed its wall cap"))
                continue
            children.append(spawner.child("workload", workload, seed, share,
                                          trace=0, quick=quick, oracle=i == 0))

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    failures = [f for c in children for f in c.get("failures", [])]
    if trace:
        values: Dict[str, float] = {}
        for c in children:
            values.update(c["layers"])
        walls = children[0]["job_walls"]
        values["bench.job_wall_n"] = float(len(walls))
        values["bench.job_wall_tail_pct"] = tail_of(walls)[1] if walls else 0.0
        values["bench.loadavg_start"] = load_start[0]
        declared = manifest["per_layer"]
    else:
        values = end_to_end(children)
        declared = manifest["end_to_end"]
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in values]
    extra = sorted(set(values) - set(names))
    if missing:
        failures.append(f"metrics not measured: {missing}")
    if extra:
        failures.append(f"metrics measured but not declared in BENCHMARK.json: {extra}")
    oracle_checked = bool(children and children[0].get("oracle_checked"))
    if not oracle_checked:
        failures.append("no job of this run passed the oracle")
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {
        n: {"value": float(values.get(n, 0.0)), "unit": units[n]} for n in names
    }
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "quick": quick,
        "correct": failed == 0 and not missing and not extra and oracle_checked,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
        "failures": failures,
        "wall_s": time.monotonic() - t_start,
        "loadavg_start": load_start,
        "children": children,
    }


def print_run(run: Dict[str, Any]) -> None:
    kind = "per-layer (traced)" if run["trace"] else "end-to-end"
    print(f"== {run['workload']}  seed {run['seed']}  {kind}  "
          f"{run['attempted'] - run['failed']}/{run['attempted']} ok  "
          f"{run['wall_s']:.1f} s")
    for name, m in run["metrics"].items():
        print(f"{name:42s} {m['value']:16.6f} {m['unit']}")
    for failure in run["failures"]:
        print(f"FAILED: {failure}")
    sys.stdout.flush()


def result_line(run: Dict[str, Any]) -> str:
    return json.dumps({k: run[k] for k in ("correct", "attempted", "failed", "metrics")})


def main(argv: Optional[List[str]] = None) -> int:
    try:
        perf_env.check_environment()
        with open(MANIFEST, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (perf_env.EnvironmentRefused, OSError, ValueError) as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 2
    manifest_names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=manifest_names,
                        help="one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per run "
                        "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one job per workload, every check on")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run seeds seed .. seed+K-1")
    parser.add_argument("--json", metavar="PATH",
                        help="write fingerprint and every run (not just medians)")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else float(manifest["run_seconds"])
    workloads = [args.workload] if args.workload else manifest_names
    seeds = [args.seed + k for k in range(args.repeat)]

    spawner = Spawner()
    runs: List[Dict[str, Any]] = []
    try:
        for seed in seeds:
            for workload in workloads:
                run = run_once(spawner, manifest, workload, seed, seconds,
                               args.trace, args.quick)
                runs.append(run)
                print_run(run)
    finally:
        spawner.close()

    if args.json:
        sizes = sizes_from(runs)
        doc = {
            "schema": 1,
            "fingerprint": perf_env.fingerprint(sizes, seeds),
            "git_sha": perf_env.git_sha(),
            "run_seconds": seconds,
            "quick": args.quick,
            "end_to_end": manifest["end_to_end"],
            "per_layer": manifest["per_layer"],
            "runs": runs,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    # Last line: the machine-readable result (of the last run, when
    # --repeat or several workloads made more than one).
    print(result_line(runs[-1]))
    return 0


def sizes_from(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The workload sizes, as a child reported them: the table lives
    beside the workloads, and importing it here would pull NumPy and
    ``repro`` into the parent."""
    for run in runs:
        for child in run["children"]:
            if "sizes" in child:
                return child["sizes"]
    return {}


if __name__ == "__main__":
    sys.exit(main())

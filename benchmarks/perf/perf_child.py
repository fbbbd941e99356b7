"""One fresh process of a run: a workload child or the probes child.

``run.py`` spawns this file; it is not meant to be run by hand.  The
child leads its own process group, pays set-up once, runs its loop,
accounts for what the jobs left behind, and writes one JSON report.
Set-up is timed from the parent's spawn timestamp (``CLOCK_MONOTONIC``
is shared between processes on one host), so interpreter start and
every import below are inside ``setup_s``.
"""

import sys
import time

T_MAIN = time.monotonic()  # first line the interpreter reaches: spawn -> here = interpreter start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

import perf_env  # noqa: E402

JOB_DEADLINE_S = 45.0


def cpu_seconds() -> float:
    """User+sys CPU of this process and every child it has reaped."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Own high-water mark plus the largest reaped child's (ranks map
    their own copies, so the sum overstates pages they share)."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


class Watchdog:
    """A job that outlives its deadline takes the whole group down.

    The marker file tells the parent why this child left no report; a
    hang is a counted failure, never a stuck benchmark.
    """

    def __init__(self, marker_path: str) -> None:
        self.marker_path = marker_path
        self._timer: Optional[threading.Timer] = None

    def arm(self, label: str, seconds: float = JOB_DEADLINE_S) -> None:
        self._timer = threading.Timer(seconds, self._fire, args=(label, seconds))
        self._timer.daemon = True
        self._timer.start()

    def disarm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _fire(self, label: str, seconds: float) -> None:
        with open(self.marker_path, "w", encoding="utf-8") as fh:
            json.dump({"hung": label, "deadline_s": seconds}, fh)
        perf_env.kill_group(os.getpgid(0))


class Report:
    """What one child measured; serialised as its result file."""

    def __init__(self, role: str, workload: str, seed: int) -> None:
        self.data: Dict[str, Any] = {
            "role": role,
            "workload": workload,
            "seed": seed,
            "attempted": 0,
            "failed": 0,
            "failures": [],
            "job_walls": [],
            "interval_s": 0.0,
            "cpu_s": 0.0,
            "layers": {},
        }

    def fail(self, message: str) -> None:
        self.data["failed"] += 1
        if len(self.data["failures"]) < 20:
            self.data["failures"].append(message[:500])

    def write(self, path: str) -> None:
        tmp = path + ".part"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh)
        os.replace(tmp, path)


def account_leaks(report: Report, shm_before, label: str) -> int:
    """Segments the job left in /dev/shm: counted, then removed so one
    job (or workload) cannot poison the next."""
    leaked = perf_env.shm_segments() - shm_before
    if leaked:
        report.fail(f"{label}: left {len(leaked)} /dev/shm segment(s): {sorted(leaked)[:3]}")
        perf_env.remove_shm(leaked)
    return len(leaked)


def account_strays(report: Report) -> int:
    strays = perf_env.stray_processes(os.getpgid(0), os.getpid())
    if strays:
        report.fail(f"left {len(strays)} live process(es): {list(strays.values())[:3]}")
        for pid in strays:
            try:
                os.kill(pid, 9)
            except OSError:
                pass
    return len(strays)


# -- one-shot workloads --------------------------------------------------------

def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _union_seconds(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def job_facts(result, wall0: float, wall: float) -> Dict[str, Any]:
    """What a traced run keeps of one job's returned stats and trace
    (the result itself is dropped: outputs run to tens of MB)."""
    stats = result.stats
    facts: Dict[str, Any] = {
        "elapsed": stats.elapsed,
        "wall_clock": stats.clock == "wall",
        # each stage's slowest rank: the most that stage can block the job
        "stages": {s: max(w.stage_seconds.get(s, 0.0) for w in stats.workers)
                   for s in ("map", "bin", "sort", "reduce")},
        "shuffle_mb": stats.total_network_bytes / 1e6,
        "chunks": stats.total_chunks,
        "steals": stats.total_steals,
    }
    if result.obs is not None:
        program_spans = [r for r in result.obs.tracer.records if r.get("ev") == "span"]
        facts["spans"] = len(program_spans)
        if facts["wall_clock"]:
            lo, hi = wall0, wall0 + wall
            covered = _union_seconds(
                (max(r["ts"], lo), min(r["ts"] + r["dur"], hi))
                for r in program_spans
                if r["ts"] < hi and r["ts"] + r["dur"] > lo
            )
            facts["coverage"] = covered / wall
        else:  # modeled clock: share of modeled elapsed under a span
            covered = _union_seconds((r["ts"], r["ts"] + r["dur"]) for r in program_spans)
            facts["coverage"] = covered / stats.elapsed if stats.elapsed else 0.0
    return facts


def oneshot_child(args, report: Report, watchdog: Watchdog) -> None:
    import perf_workloads as pw

    jc = pw.WORKLOADS[args.workload].job
    trace = bool(args.trace)
    dataset = pw.build_dataset(jc, args.seed, args.quick)
    job = pw.build_job(jc, dataset)
    verifier = pw.Verifier(jc)
    spans = pw.Spans() if trace else None
    span = spans if trace else pw.no_span
    if trace:
        from repro.obs import Observability
    shm_before = perf_env.shm_segments()
    report.data["setup_s"] = time.monotonic() - args.spawned_at  # first job submittable

    leaked_total = 0
    per_job: List[Dict[str, Any]] = []

    def one_job(job_no: int, armed: bool) -> Optional[Any]:
        """Run, time and check one job.  The clock covers construct,
        run and close; digest and leak accounting are outside it."""
        nonlocal leaked_total
        obs = Observability() if armed else None
        report.data["attempted"] += 1
        watchdog.arm(f"job {job_no}")
        wall0 = time.time()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with span("job", job_no):
                result = pw.run_once(jc, job, dataset, span=span, job_no=job_no, obs=obs)
            error = None
        except Exception as exc:  # noqa: BLE001 - a job that raises is a counted failure
            result, error = None, f"job {job_no} raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        cpu1 = cpu_seconds()
        watchdog.disarm()
        if error is None:
            error = verifier.check(result)
            if error:
                error = f"job {job_no}: {error}"
        if error:
            report.fail(error)
        leaked_total += account_leaks(report, shm_before, f"job {job_no}")
        rec = {"job": job_no, "wall": t1 - t0, "cpu": cpu1 - cpu0,
               "ok": error is None, "armed": armed}
        if trace and result is not None:
            rec["facts"] = job_facts(result, wall0, t1 - t0)
        per_job.append(rec)
        return result

    one_job(0, armed=False)
    report.data["cold_job_s"] = per_job[0]["wall"]
    job_no = 0
    spent = 0.0
    last = None
    while True:
        job_no += 1
        last = None  # drop the previous output before the next job runs
        # odd rounds of a traced run arm the program's own tracer
        last = one_job(job_no, armed=trace and job_no % 2 == 1)
        spent += per_job[-1]["wall"]
        # quick: one steady job (two when traced: one armed, one plain)
        if job_no >= (2 if trace else 1) if args.quick else spent >= args.seconds:
            break
    steady = [r for r in per_job[1:] if r["ok"]]
    report.data["job_walls"] = [r["wall"] for r in steady]
    report.data["interval_s"] = sum(r["wall"] for r in steady)
    report.data["cpu_s"] = sum(r["cpu"] for r in steady)
    report.data["peak_rss_mb"] = peak_rss_mb()

    # Measurement is over; what follows may allocate freely.
    if args.oracle and last is not None:
        err = pw.oracle_check(jc, dataset, last)
        report.data["oracle_checked"] = err is None
        if err:
            report.fail(err)
    del last
    orphans = account_strays(report)
    if trace:
        layers = traced_layers(spans, steady)
        layers["exec.leaked_shm_segments"] = float(leaked_total)
        layers["exec.orphan_children"] = float(orphans)
        layers["bench.cold_job_s"] = report.data["cold_job_s"]
        job_wall = _median(report.data["job_walls"])

        # The same job on the plain single-process backend; parity says
        # its output matches this class's first job.
        report.data["attempted"] += 1
        watchdog.arm("serial twin")
        t0 = time.perf_counter()
        try:
            twin = pw.run_once(jc, job, dataset, backend="serial")
            serial_wall = time.perf_counter() - t0
            err = verifier.check(twin)
            if err:
                report.fail(f"serial twin: {err}")
        except Exception as exc:  # noqa: BLE001
            serial_wall = time.perf_counter() - t0
            report.fail(f"serial twin raised {type(exc).__name__}: {exc}")
        watchdog.disarm()
        layers["exec.serial_wall_s"] = serial_wall
        layers["exec.speedup_vs_serial"] = serial_wall / job_wall if job_wall else 0.0
        report.data["layers"] = layers
        report.data["spans"] = spans.records


def traced_layers(spans, steady: List[Dict[str, Any]]) -> Dict[str, float]:
    """``exec.*`` and ``obs.*`` from bench-side spans and returned stats."""
    ok_jobs = {r["job"] for r in steady}
    by_job: Dict[str, Dict[int, float]] = {}
    for r in spans.records:
        if r["job"] in ok_jobs:
            by_job.setdefault(r["name"], {})[r["job"]] = r["t1"] - r["t0"]

    def span_median(name: str) -> float:
        return _median(list(by_job.get(name, {}).values()))

    layers: Dict[str, float] = {}
    construct, run, close = (span_median(f"exec.{n}") for n in ("construct", "run", "close"))
    job_wall = _median([r["wall"] for r in steady])
    layers["exec.construct_s"] = construct
    layers["exec.run_s"] = run
    layers["exec.close_s"] = close
    layers["bench.closure_frac"] = (construct + run + close) / job_wall if job_wall else 0.0

    facts = [r["facts"] for r in steady]
    layers["exec.elapsed_s"] = _median([f["elapsed"] for f in facts])
    for s in ("map", "bin", "sort", "reduce"):
        layers[f"exec.{s}_s"] = _median([f["stages"][s] for f in facts])
    # modeled seconds (sim) are not wall: there the whole run is driver
    layers["exec.driver_gap_s"] = _median([
        by_job["exec.run"][r["job"]]
        - (r["facts"]["elapsed"] if r["facts"]["wall_clock"] else 0.0)
        for r in steady
    ])
    layers["exec.shuffle_mb"] = _median([f["shuffle_mb"] for f in facts])
    layers["exec.chunks"] = _median([f["chunks"] for f in facts])
    layers["exec.steals"] = sum(f["steals"] for f in facts) / max(len(facts), 1)

    # The program's own tracer: cost (armed vs unarmed rounds), volume,
    # and how much of the caller's wall its spans account for.
    armed = [r for r in steady if r["armed"]]
    plain = [r for r in steady if not r["armed"]]
    layers["obs.overhead_frac"] = (
        _median([r["wall"] for r in armed]) / _median([r["wall"] for r in plain]) - 1.0
        if armed and plain else 0.0
    )
    layers["obs.spans_per_job"] = _median([r["facts"]["spans"] for r in armed])
    layers["obs.span_coverage_frac"] = _median([r["facts"]["coverage"] for r in armed])
    return layers


# -- the service workload ------------------------------------------------------

def service_child(args, report: Report, watchdog: Watchdog) -> None:
    import perf_workloads as pw

    workload = pw.WORKLOADS[args.workload]
    shm_before = perf_env.shm_segments()
    watchdog.arm("service start + prewarm", 120.0)
    rig = pw.ServiceRig(workload.job, args.seed, args.quick)
    watchdog.disarm()
    report.data["setup_s"] = time.monotonic() - args.spawned_at  # first job submittable
    report.data["attempted"] += pw.HOT_SPECS
    for failure in rig.failures:
        report.fail(failure)

    # quick: one 3-hot-1-miss cycle per client instead of a timed loop
    budget = float("inf") if args.quick else args.seconds
    max_jobs = pw.MISS_EVERY if args.quick else None
    watchdog.arm("service loop", args.seconds * 3 + 2 * JOB_DEADLINE_S)
    verify0 = rig.verify_cpu_s
    cpu0 = cpu_seconds()
    samples = rig.run_clients(budget, max_jobs, JOB_DEADLINE_S)
    cpu1 = cpu_seconds()
    watchdog.disarm()

    report.data["attempted"] += len(samples)
    good = [s for s in samples if s.error is None]
    for s in samples:
        if s.error:
            report.fail(f"service job: {s.error}")
    report.data["job_walls"] = [s.wall for s in good]
    # Two clients wait at once: the loop's wall is the mean of their
    # timed totals, which keeps verification outside the clock.
    report.data["interval_s"] = sum(s.wall for s in good) / pw.SERVICE_CLIENTS
    report.data["cpu_s"] = (cpu1 - cpu0) - (rig.verify_cpu_s - verify0)
    report.data["peak_rss_mb"] = peak_rss_mb()
    report.data["oracle_checked"] = True  # every spec's first job is oracle-checked
    rig.close()
    account_leaks(report, shm_before, "service loop")
    account_strays(report)


# -- entry ---------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("workload", "probes"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--oracle", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    args.quick = bool(args.quick)

    report = Report(args.role, args.workload, args.seed)
    report.data["interpreter_s"] = T_MAIN - args.spawned_at
    watchdog = Watchdog(args.out + ".hung")
    try:
        if args.role == "probes":
            import perf_probes

            shm_before = perf_env.shm_segments()
            perf_probes.run_all(args, report, watchdog)
            account_leaks(report, shm_before, "probes")
            account_strays(report)
        else:
            import perf_workloads as pw

            report.data["sizes"] = pw.sizes(args.quick)
            # A traced run measures the class one-shot even for the
            # service workload; the daemon path is traced by the probes.
            if pw.WORKLOADS[args.workload].service and not args.trace:
                service_child(args, report, watchdog)
            else:
                oneshot_child(args, report, watchdog)
    except Exception:  # noqa: BLE001 - the parent needs the reason, not a bare exit code
        report.data["attempted"] += 1
        report.fail("child crashed:\n" + traceback.format_exc()[-1500:])
    report.write(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

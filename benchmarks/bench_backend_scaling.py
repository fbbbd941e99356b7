"""Wall-clock backend scaling: serial -> local -> cluster vs the sim.

PR 1 made the speed axis *measurable*; the cluster fabric made the
communication axis *real*.  This bench runs one shuffle-heavy job (SIO, the paper's all-to-all
stress case) on every real backend across a worker sweep and lines the
measured speedups up against the sim's predicted strong-scaling curve
for the same job:

* ``serial``  is the 1-process floor (all ranks in one interpreter —
  its "scaling" is flat by construction and anchors the comparison);
* ``cluster`` scales over OS processes joined by the TCP socket
  fabric, one raw-codec batch frame plus its raw bytes per (src, dst);
* ``local``   is the same fabric on loopback with the multi-host knobs
  fixed, so its rows and the cluster rows should agree to within
  noise;
* ``sim``     contributes the modeled speedup the paper's cost model
  predicts for this worker count.

Besides wall-clock speedups the bench reports **exchange throughput**
(network-destined shuffle bytes per second of exposed bin time) per
backend — both over the TCP wire — plus a
**load-balanced** section: the sim runs the same job with stealing
enabled from an imbalanced ``single`` placement, each real backend
replays the recorded steal schedule (``schedule=``), and — new with
the pull-based chunk service — each real backend also steals
**natively** (idle ranks pulling chunks from the driver at runtime),
so replayed-sim-schedule and native-steal wall-clock columns sit side
by side and both stay bit-validated against the sim.  A final
**killed-rank recovery** row prices fault tolerance: rank 1 SIGKILLs
itself at its 2nd grant (`FaultPlan`), the driver reclaims its chunks
and respawns it mid-job, and the recovered wall-clock sits next to
the failure-free run it must stay bit-identical to.  A closing
**observability** section re-runs the pinned job with the tracer and
metrics registry armed and reports grant round-trip and shuffle-batch
p50/p99 latencies straight from the run's histograms, plus the
wall-clock overhead of recording them (<5% target).

Smoke mode shrinks the dataset to a functional payload; speedup shapes
are advisory there (process start-up dominates toy sizes).
"""

import os
import time

from repro.apps.sparse_int_occurrence import sio_dataset, sio_job
from repro.core import FaultPlan, make_executor
from repro.harness import bench_smoke_enabled
from repro.obs import Observability

WORKER_COUNTS = (1, 2, 4)

#: (label, backend, executor kwargs) — label is the table row key.
VARIANTS = (
    ("serial", "serial", {}),
    ("local", "local", {}),
    ("cluster", "cluster", {}),
)


def _dataset():
    n_elements = (1 << 15) if bench_smoke_enabled() else (4 << 20)
    return sio_dataset(
        n_elements,
        chunk_elements=max(n_elements // 16, 2_048),
        key_space=1 << 16,
        seed=1234,
    )


def _cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _measure():
    ds = _dataset()
    job = sio_job(key_space=1 << 16).with_config(enable_stealing=False)
    wall = {}       # (label, n) -> seconds
    exchange = {}   # (label, n) -> (network_bytes, bin_seconds)
    for label, backend, kwargs in VARIANTS:
        for n in WORKER_COUNTS:
            t0 = time.perf_counter()
            result = make_executor(backend, n, **kwargs).run(job, dataset=ds)
            wall[(label, n)] = time.perf_counter() - t0
            assert any(kv is not None for kv in result.outputs)
            exchange[(label, n)] = (
                result.stats.total_network_bytes,
                result.stats.stage_totals["bin"],
            )
    modeled = {
        n: make_executor("sim", n).run(job, dataset=ds).elapsed
        for n in WORKER_COUNTS
    }

    # Load-balanced rows: sim records a steal schedule from an
    # imbalanced placement; the real backends replay it chunk-for-chunk
    # (the steal-parity contract keeps the outputs bit-identical, so
    # these columns time *scheduling*, not different answers).
    steal_job = sio_job(key_space=1 << 16)  # stealing on (default)
    steal_wall = {}   # (label, n) -> seconds
    steal_counts = {} # n -> steals in the replayed schedule
    for n in WORKER_COUNTS:
        recorded = make_executor(
            "sim", n, initial_distribution="single"
        ).run(steal_job, dataset=ds)
        trace = recorded.schedule
        steal_counts[n] = trace.total_steals
        for label, backend, kwargs in VARIANTS:
            t0 = time.perf_counter()
            result = make_executor(backend, n, **kwargs).run(
                steal_job, dataset=ds, schedule=trace
            )
            steal_wall[(label, n)] = time.perf_counter() - t0
            assert result.stats.total_steals == trace.total_steals

    # Native rows: the same imbalanced start, but no replayed schedule
    # — each real backend's ranks pull chunks from the driver's chunk
    # service and steal at runtime, recording their own ScheduleTrace.
    native_wall = {}    # (label, n) -> seconds
    native_steals = {}  # (label, n) -> steals the backend decided itself
    for n in WORKER_COUNTS:
        for label, backend, kwargs in VARIANTS:
            t0 = time.perf_counter()
            result = make_executor(
                backend, n, initial_distribution="single", **kwargs
            ).run(steal_job, dataset=ds)
            native_wall[(label, n)] = time.perf_counter() - t0
            assert result.schedule is not None
            native_steals[(label, n)] = result.schedule.total_steals

    # Recovery rows: rank 1 SIGKILLs itself at its 2nd grant; the
    # driver reclaims its un-posted chunks and respawns it mid-job
    # (the cluster replacement rejoins the fabric), so the column is
    # the wall-clock price of surviving a kill -9 vs the pinned run.
    fault = FaultPlan(kill_rank_at_chunk={1: 2})
    n_fault = max(WORKER_COUNTS)
    recovery_wall = {}      # label -> seconds at n_fault workers
    recovery_reclaims = {}  # label -> chunks reclaimed
    for label, backend, kwargs in VARIANTS:
        if label == "serial":
            continue
        t0 = time.perf_counter()
        result = make_executor(
            backend, n_fault, fault_plan=fault, **kwargs
        ).run(job, dataset=ds)
        recovery_wall[label] = time.perf_counter() - t0
        recovery_reclaims[label] = result.stats.chunks_reclaimed

    # Observability rows: the same pinned job re-run once per backend
    # with the tracer + metrics registry armed.  Two things come out:
    # the service/exchange latency distributions (grant round-trip and
    # shuffle-batch encode+post, p50/p99 straight from the run's
    # histogram registry) and the price of recording them — traced
    # wall-clock next to the untraced run above (<5% overhead target).
    n_obs = max(WORKER_COUNTS)
    obs_wall = {}   # label -> traced seconds at n_obs workers
    obs_hists = {}  # label -> {"grant": summary|None, "batch": summary|None}
    for label, backend, kwargs in VARIANTS:
        obs = Observability()
        t0 = time.perf_counter()
        make_executor(backend, n_obs, obs=obs, **kwargs).run(job, dataset=ds)
        obs_wall[label] = time.perf_counter() - t0
        obs_hists[label] = {
            "grant": obs.metrics.histogram("grant_latency_s").summary(),
            "batch": obs.metrics.histogram("shuffle_batch_s").summary(),
        }
    return (ds, wall, exchange, modeled, steal_wall, steal_counts,
            native_wall, native_steals, recovery_wall, recovery_reclaims,
            obs_wall, obs_hists)


def _throughput(exchange, label, n):
    """Exchange bytes/second: network-destined bytes over bin time."""
    nbytes, seconds = exchange[(label, n)]
    return nbytes / max(seconds, 1e-9)


def _pct(summary, key):
    """One histogram percentile as a milliseconds column ('-' if empty)."""
    if summary is None or summary["count"] == 0:
        return "-"
    return f"{summary[key] * 1e3:.2f}"


def _render(ds, wall, exchange, modeled, steal_wall, steal_counts,
            native_wall, native_steals, recovery_wall, recovery_reclaims,
            obs_wall, obs_hists):
    def speedup(label, n):
        return wall[(label, 1)] / wall[(label, n)]

    lines = [
        f"backend scaling — SIO, {ds.n_elements:,d} elements, "
        f"{ds.n_chunks} chunks (wall-clock vs sim-predicted speedup)",
        f"{'n':>3} {'serial_ms':>10} {'local_ms':>10} "
        f"{'cluster_ms':>11} {'local_x':>8} {'cluster_x':>10} {'sim_x':>7}",
    ]
    for n in WORKER_COUNTS:
        lines.append(
            f"{n:>3} "
            f"{wall[('serial', n)] * 1e3:>10.1f} "
            f"{wall[('local', n)] * 1e3:>10.1f} "
            f"{wall[('cluster', n)] * 1e3:>11.1f} "
            f"{speedup('local', n):>8.2f} "
            f"{speedup('cluster', n):>10.2f} "
            f"{modeled[1] / modeled[n]:>7.2f}"
        )
    lines += [
        "",
        "exchange throughput — network-destined shuffle MB per second of "
        "exposed bin time",
        f"{'n':>3} {'local_MBps':>11} {'cluster_MBps':>13}",
    ]
    for n in WORKER_COUNTS[1:]:  # n=1 shuffles nothing over the fabric
        lines.append(
            f"{n:>3} "
            f"{_throughput(exchange, 'local', n) / 1e6:>11.1f} "
            f"{_throughput(exchange, 'cluster', n) / 1e6:>13.1f}"
        )
    lines += [
        "",
        "load-balanced — single placement, stealing on: replayed = "
        "sim-recorded schedule re-executed; native = ranks pull chunks "
        "from the driver's service and steal at runtime (both "
        "bit-validated vs the sim)",
        f"{'n':>3} {'steals':>7} {'serial_ms':>10} {'local_ms':>10} "
        f"{'cluster_ms':>11} {'nat_steals(s/l/c)':>18} {'serial_nat':>11} "
        f"{'local_nat':>10} {'cluster_nat':>12}",
    ]
    for n in WORKER_COUNTS:
        # Each backend decides its own native schedule; report all
        # three steal counts, not just one standing in for the row.
        nat = "/".join(
            str(native_steals[(label, n)])
            for label in ("serial", "local", "cluster")
        )
        lines.append(
            f"{n:>3} "
            f"{steal_counts[n]:>7d} "
            f"{steal_wall[('serial', n)] * 1e3:>10.1f} "
            f"{steal_wall[('local', n)] * 1e3:>10.1f} "
            f"{steal_wall[('cluster', n)] * 1e3:>11.1f} "
            f"{nat:>18} "
            f"{native_wall[('serial', n)] * 1e3:>11.1f} "
            f"{native_wall[('local', n)] * 1e3:>10.1f} "
            f"{native_wall[('cluster', n)] * 1e3:>12.1f}"
        )
    n_fault = max(WORKER_COUNTS)
    lines += [
        "",
        "killed-rank recovery — rank 1 SIGKILLed at its 2nd grant, "
        "reclaimed + respawned mid-job; output stays bit-identical to "
        "the failure-free run",
        f"{'n':>3} {'local_ms':>10} {'local_rec_ms':>13} "
        f"{'cluster_ms':>11} {'cluster_rec_ms':>15} {'reclaims(l/c)':>14}",
        (
            f"{n_fault:>3} "
            f"{wall[('local', n_fault)] * 1e3:>10.1f} "
            f"{recovery_wall['local'] * 1e3:>13.1f} "
            f"{wall[('cluster', n_fault)] * 1e3:>11.1f} "
            f"{recovery_wall['cluster'] * 1e3:>15.1f} "
            + (
                f"{recovery_reclaims['local']}/"
                f"{recovery_reclaims['cluster']}"
            ).rjust(14)
        ),
    ]
    lines += [
        "",
        f"observability — traced run at n={n_fault}: grant round-trip and "
        "shuffle-batch latency p50/p99 (ms) from the run's metrics "
        "registry, and tracing overhead vs the untraced run "
        "(<5% target; advisory in smoke mode)",
        f"{'backend':>8} {'grant_p50':>10} {'grant_p99':>10} "
        f"{'batch_p50':>10} {'batch_p99':>10} {'untraced_ms':>12} "
        f"{'traced_ms':>10} {'overhead':>9}",
    ]
    for label in ("serial", "local", "cluster"):
        base = wall[(label, n_fault)]
        overhead = (obs_wall[label] - base) / base
        lines.append(
            f"{label:>8} "
            f"{_pct(obs_hists[label]['grant'], 'p50'):>10} "
            f"{_pct(obs_hists[label]['grant'], 'p99'):>10} "
            f"{_pct(obs_hists[label]['batch'], 'p50'):>10} "
            f"{_pct(obs_hists[label]['batch'], 'p99'):>10} "
            f"{base * 1e3:>12.1f} "
            f"{obs_wall[label] * 1e3:>10.1f} "
            f"{overhead:>+8.1%}"
        )
    return "\n".join(lines)


def test_backend_scaling(benchmark, save_result, check):
    (ds, wall, exchange, modeled, steal_wall, steal_counts,
     native_wall, native_steals, recovery_wall, recovery_reclaims,
     obs_wall, obs_hists) = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    save_result(
        "backend_scaling",
        _render(ds, wall, exchange, modeled, steal_wall,
                steal_counts, native_wall, native_steals, recovery_wall,
                recovery_reclaims, obs_wall, obs_hists),
    )

    local_x = wall[("local", 1)] / wall[("local", 4)]
    cluster_x = wall[("cluster", 1)] / wall[("cluster", 4)]
    sim_x = modeled[1] / modeled[4]
    local_bps = _throughput(exchange, "local", 4)
    benchmark.extra_info.update(
        {
            "local_speedup_4": round(local_x, 3),
            "cluster_speedup_4": round(cluster_x, 3),
            "sim_predicted_speedup_4": round(sim_x, 3),
            "local_exchange_MBps_4": round(local_bps / 1e6, 1),
            "local_native_steals_4": native_steals[("local", 4)],
            "local_recovery_ms_4": round(recovery_wall["local"] * 1e3, 1),
            "cluster_recovery_ms_4": round(
                recovery_wall["cluster"] * 1e3, 1
            ),
        }
    )

    # The sim predicts real strong scaling for SIO at 4 workers...
    check(sim_x > 1.2, "sim predicts SIO strong-scales to 4 workers")
    # ...and with >= 4 real cores the parallel backends must realise
    # some of it (process + socket overheads bound how much).  On
    # fewer cores there is no parallelism to find, so the speedup rows
    # are reported but not asserted.
    if _cores() >= 4:
        check(local_x > 1.1, "local backend shows measurable 4-worker speedup")
        check(
            cluster_x > 1.05, "cluster backend shows measurable 4-worker speedup"
        )
    # One transport: the cluster configuration is not an order of
    # magnitude off its own loopback twin.
    check(
        wall[("cluster", 4)] < 10 * wall[("local", 4)],
        "cluster shuffle stays within 10x of local shuffle",
    )
    # Serial has no parallelism to find: its sweep stays roughly flat.
    check(
        wall[("serial", 4)] < 2.0 * wall[("serial", 1)],
        "serial wall time is ~independent of n_workers",
    )
    # The load-balanced rows exist and actually balanced something: at
    # 4 workers the single-rank placement forces the other three ranks
    # to steal, and replaying that schedule costs the same order of
    # wall-clock as the pinned run (it moves the same bytes).
    check(steal_counts[4] > 0, "sim schedule at n=4 contains steals")
    check(
        steal_wall[("local", 4)] < 10 * wall[("local", 4)],
        "replayed steal schedule stays within 10x of the pinned run",
    )
    # Native stealing really happened (idle ranks pulled work from the
    # single loaded rank at runtime) and costs the same order of
    # wall-clock as replaying a sim-recorded schedule.
    check(
        native_steals[("local", 4)] > 0,
        "local backend steals natively from a single placement",
    )
    check(
        native_wall[("local", 4)] < 10 * steal_wall[("local", 4)],
        "native stealing stays within 10x of the replayed schedule",
    )
    # The kill really happened and the recovery path really ran —
    # chunks were reclaimed on both real backends — and surviving it
    # costs the same order of wall-clock as the failure-free run
    # (one respawned process + a re-executed map phase, not a rerun).
    check(
        recovery_reclaims["local"] > 0 and recovery_reclaims["cluster"] > 0,
        "killed rank's chunks were reclaimed on both real backends",
    )
    check(
        recovery_wall["local"] < 20 * wall[("local", 4)],
        "local kill recovery stays within 20x of the failure-free run",
    )
    # The traced runs actually metered their hot paths: every granted
    # chunk's round-trip landed in the latency histogram, and the
    # process backends timed their shuffle batches.
    check(
        obs_hists["cluster"]["grant"]["count"] >= ds.n_chunks,
        "traced cluster run metered every grant round-trip",
    )
    check(
        obs_hists["local"]["batch"]["count"] > 0,
        "traced local run metered its shuffle batches",
    )
    benchmark.extra_info["tracing_overhead_local_4"] = round(
        (obs_wall["local"] - wall[("local", 4)]) / wall[("local", 4)], 3
    )
    # The <5% overhead target is only meaningful at real payload sizes;
    # smoke-mode runs are startup-dominated, so bound it loosely there.
    if not bench_smoke_enabled():
        check(
            obs_wall["local"] < 1.05 * wall[("local", 4)],
            "tracing overhead on the local backend stays under 5%",
        )

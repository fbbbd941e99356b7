"""Observability layer: tracer, metrics, serialization, CLI, parity.

The fast half covers the instruments themselves — span/event recording
and ordering, histogram percentiles, snapshot/absorb merging, the
JSONL and Chrome ``trace_event`` serializations, the ``JobStats`` dict
round-trip, and the record and view CLIs (in process and as
``python -m`` modules) — plus traced-vs-untraced bit-parity on
the in-process backends (sim, serial).

The ``slow`` half runs the same parity contract on the process
backends (local, cluster) and checks the fault chronology a traced
cluster run records: kill -9 -> rank_dead -> reclaim -> respawn ->
rejoin, attributed to the right rank.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps.sparse_int_occurrence import SIOMapper, sio_dataset, sio_job
from repro.core import FaultPlan, make_executor
from repro.core.kvset import KeyValueSet
from repro.core.stats import JobStats, WorkerStats
from repro.obs import (
    BYTES_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NULL_OBS,
    NULL_TRACER,
    Observability,
    Tracer,
    chrome_trace,
    read_jsonl,
)
from repro.obs.view import main as view_main, render


def _dataset():
    return sio_dataset(
        n_elements=48_000, chunk_elements=4_000, key_space=1 << 13, seed=5
    )


def _assert_bit_identical(ref, got, tag):
    assert len(ref.outputs) == len(got.outputs), tag
    for rank, (a, b) in enumerate(zip(ref.outputs, got.outputs)):
        where = f"{tag} rank {rank}"
        assert (a is None) == (b is None), where
        if a is None:
            continue
        assert np.array_equal(a.keys, b.keys), where
        assert a.values.tobytes() == b.values.tobytes(), where


def _run(backend, n_workers=3, obs=None, **kwargs):
    ds = _dataset()
    ex = make_executor(backend, n_workers, obs=obs, **kwargs)
    try:
        return ex.run(sio_job(ds.key_space), dataset=ds)
    finally:
        close = getattr(ex, "close", None)
        if close is not None:
            close()


# -- tracer ------------------------------------------------------------------

def test_tracer_spans_events_and_ordering():
    clock = iter(float(i) for i in range(100))
    tracer = Tracer(clock=lambda: next(clock))
    with tracer.span("outer", rank=0):
        with tracer.span("inner", rank=0, chunk=3):
            pass
        tracer.event("steal", rank=1, victim=0)
    recs = tracer.sorted_records()
    # inner closes before outer, so it carries the earlier seq at a
    # later ts; the event landed between the two closes.
    names = [r["name"] for r in recs]
    assert names == ["outer", "inner", "steal"]
    inner = recs[1]
    assert inner["ev"] == "span" and inner["chunk"] == 3
    assert inner["dur"] == pytest.approx(1.0)
    outer = recs[0]
    assert outer["ts"] == 0.0 and outer["dur"] == pytest.approx(4.0)
    steal = recs[2]
    assert steal["ev"] == "event"
    assert steal["rank"] == 1 and steal["args"] == {"victim": 0}
    assert len(tracer) == 3


def test_tracer_default_rank_and_absorb_reseq():
    worker = Tracer(rank=7)
    worker.add_span("chunk_map", 1.0, 2.0)
    assert worker.records[0]["rank"] == 7
    driver = Tracer()
    driver.event("grant", rank=0, ts=0.5)
    driver.absorb(worker.records)
    seqs = [r["seq"] for r in driver.records]
    assert seqs == sorted(seqs) and len(set(seqs)) == 2
    assert [r["name"] for r in driver.sorted_records()] == ["grant", "chunk_map"]


def test_null_tracer_is_a_noop():
    assert not NULL_TRACER.enabled
    with NULL_TRACER.span("anything", rank=0):
        NULL_TRACER.event("steal")
        NULL_TRACER.add_span("x", 0.0, 1.0)
    assert len(NULL_TRACER) == 0 and NULL_TRACER.records == []
    assert NULL_OBS.tracer is NULL_TRACER
    assert NULL_OBS.metrics is NULL_METRICS
    assert NULL_OBS.export() is None


# -- metrics -----------------------------------------------------------------

def test_histogram_percentiles_and_merge():
    h = Histogram()
    for v in (0.001, 0.002, 0.004, 0.008, 0.1):
        h.observe(v)
    s = h.summary()
    assert s["count"] == 5
    assert s["max"] == pytest.approx(0.1)
    assert s["mean"] == pytest.approx(0.023)
    # p50 lands in the bucket holding the 3rd observation (0.004's
    # bucket spans (0.002, 0.004]); bucket-resolution accuracy.
    assert 0.002 <= s["p50"] <= 0.004
    assert s["p99"] <= 0.1
    other = Histogram()
    other.observe(1.0)
    h.merge(other)
    assert h.count == 6 and h.max == pytest.approx(1.0)
    with pytest.raises(ValueError):
        h.merge(Histogram(bounds=BYTES_BUCKETS))


def test_histogram_dict_round_trip_empty_and_filled():
    empty = Histogram.from_dict(Histogram().to_dict())
    assert empty.count == 0 and empty.percentile(0.5) == 0.0
    h = Histogram(bounds=BYTES_BUCKETS)
    h.observe(100.0)
    h2 = Histogram.from_dict(h.to_dict())
    assert h2.count == 1 and h2.min == pytest.approx(100.0)
    assert h2.bounds == h.bounds


def test_registry_snapshot_absorb_round_trip():
    worker = MetricsRegistry()
    worker.counter("steals").inc(3)
    worker.gauge("chunks_total").set(12)
    worker.histogram("grant_latency_s").observe(0.01)
    driver = MetricsRegistry()
    driver.counter("steals").inc()
    driver.absorb(worker.snapshot())
    snap = driver.snapshot()
    assert snap["counters"]["steals"] == 4
    assert snap["gauges"]["chunks_total"] == 12
    assert snap["histograms"]["grant_latency_s"]["count"] == 1
    # snapshots are JSON-serializable as-is
    json.dumps(snap)
    null = NULL_METRICS
    null.counter("x").inc()
    null.histogram("y").observe(1.0)
    assert null.snapshot() is None


# -- JobStats round trip -----------------------------------------------------

def test_jobstats_dict_round_trip():
    w = WorkerStats(rank=1)
    for stage in ("map", "bin", "sort", "reduce"):
        w.add(stage, 0.25)
    w.chunks_mapped = 4
    w.chunks_stolen = 1
    w.pairs_emitted_logical = 1000
    w.bytes_sent_network = 2048
    stats = JobStats(
        job_name="sio", n_gpus=2, elapsed=1.5,
        workers=[WorkerStats(rank=0), w],
        chunks_reclaimed=2,
        retries_by_worker=[0, 2], clock="wall",
    )
    back = JobStats.from_dict(stats.to_dict())
    assert back.job_name == "sio" and back.n_gpus == 2
    assert back.elapsed == pytest.approx(1.5)
    assert back.clock == "wall"
    assert back.chunks_reclaimed == 2
    assert back.retries_by_worker == [0, 2]
    assert back.workers[1].stage_seconds == w.stage_seconds
    assert back.workers[1].chunks_stolen == 1
    assert back.workers[1].bytes_sent_network == 2048
    json.dumps(stats.to_dict())  # JSON-clean, for the trace header


def test_describe_labels_clock_domain():
    sim = JobStats(job_name="x", n_gpus=1, elapsed=1.0,
                   workers=[WorkerStats(rank=0)])
    wall = JobStats(job_name="x", n_gpus=1, elapsed=1.0,
                    workers=[WorkerStats(rank=0)], clock="wall")
    assert "simulated" in sim.describe()
    assert "wall-clock" in wall.describe()
    assert "simulated" not in wall.describe()


# -- serialization + CLI -----------------------------------------------------

def _small_traced_run(tmp_path, backend="serial"):
    obs = Observability()
    trace_path = tmp_path / "run.trace.jsonl"
    ds = _dataset()
    ex = make_executor(backend, 2, obs=obs, trace_path=str(trace_path))
    result = ex.run(sio_job(ds.key_space), dataset=ds)
    return obs, trace_path, result


def test_jsonl_round_trip(tmp_path):
    obs, trace_path, _result = _small_traced_run(tmp_path)
    trace = read_jsonl(str(trace_path))
    assert trace["meta"]["backend"] == "serial"
    assert trace["meta"]["clock"] == "wall"
    assert trace["meta"]["run_id"] == obs.run_id
    assert trace["meta"]["stats"]["workers"]
    assert len(trace["records"]) == len(obs.tracer.records)
    # records come back timeline-ordered with the schema fields intact
    ts = [r["ts"] for r in trace["records"]]
    assert ts == sorted(ts)
    for rec in trace["records"]:
        assert rec["ev"] in ("span", "event")
        assert "name" in rec and "ts" in rec and "rank" in rec
        if rec["ev"] == "span":
            assert rec["dur"] >= 0.0
    assert trace["metrics"]["counters"]["chunks_granted"] > 0


def test_chrome_export_well_formed(tmp_path):
    obs, _trace_path, _result = _small_traced_run(tmp_path)
    doc = chrome_trace(obs.tracer.records, obs.meta)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert "M" in phases and "X" in phases
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert "driver" in names and any(n.startswith("rank ") for n in names)
    for e in events:
        assert e["pid"] == 0 and isinstance(e["tid"], int)
        if e["ph"] == "X":
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0
        if e["ph"] == "i":
            assert e["s"] == "t"
    json.dumps(doc)
    # write_chrome produces the same document on disk
    out = tmp_path / "run.chrome.json"
    obs.write_chrome(str(out))
    assert json.loads(out.read_text()) == doc


def test_view_cli_renders_all_sections(tmp_path, capsys):
    _obs, trace_path, _result = _small_traced_run(tmp_path)
    chrome_out = tmp_path / "run.chrome.json"
    rc = view_main([str(trace_path), "--chrome", str(chrome_out), "--grants"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stage seconds (Figure-2 buckets)" in out
    assert "per-rank timelines" in out
    assert "chronology" in out  # --grants guarantees grant events
    assert "grant_latency_s" in out and "p99=" in out
    assert chrome_out.exists()
    assert json.loads(chrome_out.read_text())["traceEvents"]


def test_render_handles_empty_trace():
    text = render({"meta": {}, "records": [], "metrics": None})
    assert "0 record(s)" in text


def test_record_cli_records_a_sim_trace(tmp_path, capsys):
    from repro.obs.record import main as record_main

    out = tmp_path / "sim.trace.jsonl"
    chrome = tmp_path / "sim.chrome.json"
    rc = record_main([
        "--app", "SIO", "--backend", "sim", "-n", "2",
        "--size", "8000", "--out", str(out), "--chrome", str(chrome),
    ])
    assert rc == 0
    trace = read_jsonl(str(out))
    assert trace["meta"]["backend"] == "sim"
    assert trace["meta"]["clock"] == "simulated"
    assert trace["records"]
    assert json.loads(chrome.read_text())["traceEvents"]


def test_record_and_view_run_as_modules(tmp_path):
    """The two CLIs as a user runs them, each in a fresh interpreter:
    record a serial SIO trace, then render it."""
    trace, chrome = tmp_path / "sio.trace.jsonl", tmp_path / "sio.chrome.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[1] / "src")
        + os.pathsep + env.get("PYTHONPATH", "")
    )

    def _module(*argv):
        done = subprocess.run(
            [sys.executable, "-m", *argv], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    _module("repro.obs.record", "--app", "SIO", "--backend", "serial",
            "-n", "2", "--out", str(trace), "--chrome", str(chrome))
    lines = trace.read_text().splitlines()
    assert lines and all(json.loads(line) for line in lines)
    assert json.loads(chrome.read_text())["traceEvents"]
    assert "stage seconds (Figure-2 buckets)" in _module("repro.obs.view", str(trace))


# -- parity + content on the in-process backends -----------------------------

@pytest.mark.parametrize("backend", ["sim", "serial"])
def test_traced_run_is_bit_identical_fast(backend):
    ref = _run(backend)
    obs = Observability()
    got = _run(backend, obs=obs)
    _assert_bit_identical(ref, got, f"{backend} traced parity")
    assert got.obs is obs and ref.obs is None
    names = {r["name"] for r in obs.tracer.records}
    assert {"grant", "chunk_map", "sort", "reduce"} <= names
    chunks = {r["chunk"] for r in obs.tracer.records
              if r["name"] == "chunk_map"}
    assert chunks == set(range(12))  # every chunk mapped exactly once
    if backend == "sim":
        assert obs.meta["clock"] == "simulated"
        assert got.stats.elapsed == pytest.approx(ref.stats.elapsed)


def test_sim_trace_uses_modeled_time():
    obs = Observability()
    got = _run("sim", obs=obs)
    last = max(r["ts"] + r.get("dur", 0.0) for r in obs.tracer.records)
    assert last <= got.stats.elapsed * (1 + 1e-9)


# -- the process backends (slow tier) ----------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize(
    "backend,kwargs",
    [("local", {}), ("cluster", {"timeout_seconds": 60.0})],
)
def test_traced_run_is_bit_identical_process_backends(backend, kwargs):
    ref = _run(backend, **kwargs)
    obs = Observability()
    got = _run(backend, obs=obs, **kwargs)
    _assert_bit_identical(ref, got, f"{backend} traced parity")
    names = {r["name"] for r in obs.tracer.records}
    assert {"grant", "grant_wait", "chunk_map", "shuffle_send",
            "shuffle_recv", "sort", "reduce"} <= names
    snap = obs.metrics.snapshot()
    assert snap["counters"]["chunks_granted"] == 12
    assert snap["histograms"]["grant_latency_s"]["count"] >= 12
    assert snap["histograms"]["shuffle_batch_bytes"]["count"] == 6
    # every chunk_map span names a real rank and a real chunk
    for rec in obs.tracer.records:
        if rec["name"] == "chunk_map":
            assert rec["rank"] in (0, 1, 2) and 0 <= rec["chunk"] < 12


class _OnesMapper(SIOMapper):
    """SIO's pre-uniform emission: a materialised ``1`` per key."""

    def map_chunk(self, chunk):
        return KeyValueSet(
            keys=chunk.data.astype(np.uint32),
            values=np.ones(len(chunk.data), dtype=np.int32),
            scale=chunk.scale,
        )


def test_wire_bytes_halve_for_uniform_columns_logical_bytes_do_not():
    """Two byte counts, two meanings.  ``shuffle_batch_bytes`` observes
    ``send_batch``'s returned byte count — packed bytes on the wire,
    where SIO's uniform ``1`` column is one element per part;
    ``bytes_sent_network`` (``exec.shuffle_mb``) is the logical
    ``<key, value>`` layout the sim prices, which does not move."""
    ds = _dataset()
    # placement pinned: which rank maps a chunk decides what is remote
    job = sio_job(ds.key_space).with_config(enable_stealing=False)
    runs = {}
    for name, j in (
        ("uniform", job),
        ("ones", dataclasses.replace(job, mapper=_OnesMapper())),
    ):
        obs = Observability()
        ex = make_executor("cluster", 3, obs=obs, timeout_seconds=60.0)
        try:
            result = ex.run(j, dataset=ds)
        finally:
            ex.close()
        wire = obs.metrics.snapshot()["histograms"]["shuffle_batch_bytes"]
        assert wire["count"] == 6
        runs[name] = (result, wire["total"])
    (uni, uni_wire), (ones, ones_wire) = runs["uniform"], runs["ones"]
    _assert_bit_identical(ones, uni, "uniform vs np.ones")
    logical = uni.stats.total_network_bytes
    assert logical == ones.stats.total_network_bytes
    assert [w.bytes_sent_network for w in uni.stats.workers] == [
        w.bytes_sent_network for w in ones.stats.workers
    ]
    # plain columns cost their logical bytes (plus headers) on the wire;
    # uniform ones cost the keys: half of a <u4, i4> pair
    assert logical <= ones_wire < 1.05 * logical
    assert 0.5 * logical <= uni_wire < 0.55 * logical


@pytest.mark.slow
def test_cluster_fault_trace_chronology(tmp_path):
    """A traced kill -9 run records the full recovery chronology —
    rank_dead -> reclaim -> respawn -> rejoin, on the killed rank —
    and the trace still exports a well-formed Chrome document."""
    ds = _dataset()
    obs = Observability()
    trace_path = tmp_path / "fault.trace.jsonl"
    result = make_executor(
        "cluster", 3, fault_plan=FaultPlan(kill_rank_at_chunk={1: 2}),
        timeout_seconds=90.0, obs=obs, trace_path=str(trace_path),
    ).run(sio_job(ds.key_space), dataset=ds)
    assert result.stats.chunks_reclaimed > 0

    events = [r for r in obs.tracer.sorted_records() if r["ev"] == "event"]
    chrono = [(r["name"], r["rank"]) for r in events
              if r["name"] in ("rank_dead", "reclaim", "respawn", "rejoin")]
    assert [n for n, _ in chrono] == [
        "rank_dead", "reclaim", "respawn", "rejoin"
    ]
    assert all(rank == 1 for _, rank in chrono)
    reclaim = next(r for r in events if r["name"] == "reclaim")
    assert reclaim["args"]["requeued"] == result.stats.chunks_reclaimed
    assert obs.metrics.snapshot()["counters"]["respawns"] == 1

    trace = read_jsonl(str(trace_path))
    assert trace["meta"]["stats"]["chunks_reclaimed"] > 0
    doc = chrome_trace(trace["records"], trace["meta"])
    assert any(e["ph"] == "i" and e["name"] == "rank_dead"
               for e in doc["traceEvents"])
    json.dumps(doc)


# -- multi-job tagging (the job service's interleaved traces) ----------------

def test_tracer_job_id_tags_records():
    tagged = Tracer(job_id="j1")
    tagged.add_span("chunk_map", 0.0, 1.0, rank=0)
    tagged.event("grant", rank=0, ts=0.5)
    assert all(r["job"] == "j1" for r in tagged.records)
    # Without a job id, records stay exactly as before this field
    # existed — no "job" key at all.
    plain = Tracer()
    plain.add_span("chunk_map", 0.0, 1.0, rank=0)
    assert "job" not in plain.records[0]


def test_absorb_stamps_absorbing_job():
    worker = Tracer(rank=0)
    worker.add_span("chunk_map", 0.0, 1.0)
    driver = Tracer(job_id="j9")
    driver.absorb(worker.records)
    assert driver.records[-1]["job"] == "j9"
    # An already-tagged record keeps its own job through absorption.
    other = Tracer(job_id="j2")
    other.add_span("chunk_map", 2.0, 3.0, rank=1)
    driver.absorb(other.records)
    assert driver.records[-1]["job"] == "j2"


def test_observability_set_job_flows_everywhere():
    obs = Observability(job_id="jX")
    obs.tracer.event("grant", rank=0, ts=0.0)
    assert obs.tracer.records[0]["job"] == "jX"
    snap = obs.metrics.snapshot()
    assert snap["job_id"] == "jX"
    obs.finish(backend="sim")
    assert obs.meta["job_id"] == "jX"


@pytest.mark.parametrize("backend", ["serial", "local"])
def test_callers_job_id_survives_run(backend):
    """A caller's job id stays on the bundle through run(): in the
    meta, the metrics snapshot and every trace record, rank ones
    included."""
    obs = Observability(job_id="j1")
    result = _run(backend, n_workers=2, obs=obs)
    assert result.obs is obs
    assert obs.job_id == "j1"
    assert obs.meta["job_id"] == "j1"
    assert obs.metrics.snapshot()["job_id"] == "j1"
    records = obs.tracer.records
    assert records
    assert {rec.get("job") for rec in records} == {"j1"}
    assert any(rec.get("rank") is not None for rec in records)


def test_view_renders_interleaved_jobs():
    records = []
    for seq, (job, rank, t0) in enumerate(
        [("a", 0, 0.0), ("b", 0, 0.5), ("a", 1, 1.0), ("b", 1, 1.5)]
    ):
        records.append({
            "ev": "span", "name": "chunk_map", "ts": t0, "dur": 0.4,
            "rank": rank, "seq": seq, "job": job,
        })
    text = render({"meta": {"job_id": None}, "records": records,
                   "metrics": None})
    # Two jobs sharing ranks must render as separate labelled
    # timelines, not one merged lane per rank.
    assert "job a" in text and "job b" in text

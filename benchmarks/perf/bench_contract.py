"""Contract test for the perf ledger: what ``run.py`` prints is exactly
what ``BENCHMARK.json`` declares, on every workload, with every check on.

Drives ``run.py --quick`` (tiny sizes, one job per workload; under 90 s
in total).  Named ``bench_*.py`` so the ``bench-smoke`` CI job collects
it; tier-1 (``testpaths = tests``) never sees it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_py(*args: str, cwd: Path = ROOT, script: Path = PERF / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One quick untraced and one quick traced pass over every workload."""
    tmp = tmp_path_factory.mktemp("perf")
    docs = {}
    for trace in (0, 1):
        path = tmp / f"quick{trace}.json"
        proc = run_py("--quick", "--trace", str(trace), "--json", str(path))
        assert proc.returncode == 0, proc.stderr[-2000:]
        docs[trace] = (json.loads(path.read_text()), proc.stdout)
    return docs


def test_manifest_is_within_the_contract(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/perf"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = []
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names), "a name is used once"
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("trace", (0, 1))
def test_printed_names_are_exactly_the_manifests(manifest, quick, trace):
    doc, stdout = quick[trace]
    declared = manifest["per_layer" if trace else "end_to_end"]
    assert [r["workload"] for r in doc["runs"]] == [w["name"] for w in manifest["workloads"]]
    for run in doc["runs"]:
        assert run["failures"] == [], run["failures"]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert list(run["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            assert run["metrics"][m["name"]]["unit"] == m["unit"]
            assert f"{m['name']} " in stdout  # printed by name
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in declared}


def test_end_to_end_metrics_are_never_zero(quick):
    for run in quick[0][0]["runs"]:
        for name, m in run["metrics"].items():
            assert m["value"] > 0, (run["workload"], name)


def test_sim_modeled_seconds_repeat_exactly(quick, tmp_path):
    first = next(r for r in quick[1][0]["runs"] if r["workload"] == "sim_sio_64gpu")
    path = tmp_path / "again.json"
    proc = run_py("--quick", "--trace", "1", "--workload", "sim_sio_64gpu",
                  "--json", str(path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    again = json.loads(path.read_text())["runs"][0]
    assert again["metrics"]["sim.modeled_s"]["value"] == \
        first["metrics"]["sim.modeled_s"]["value"]


def test_json_records_fingerprint_and_every_run(quick):
    doc = quick[0][0]
    for key in ("cores", "cpu_model", "python", "numpy", "seeds", "sizes"):
        assert doc["fingerprint"].get(key), key
    assert "git_sha" in doc
    for run in doc["runs"]:
        assert run["loadavg_start"] and run["children"]
        assert all(c["job_walls"] for c in run["children"])


def test_compare_accepts_a_file_against_itself(quick, tmp_path):
    path = tmp_path / "self.json"
    path.write_text(json.dumps(quick[0][0]))
    proc = subprocess.run(
        [sys.executable, str(PERF / "compare.py"), str(path), str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout
    assert not re.search(r"  (worse|unresolved)\b(?! by)", proc.stdout), proc.stdout


def test_refuses_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERF, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "kmc_map_local",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()

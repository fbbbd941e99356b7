"""Where the benchmark runs: paths, guards, fingerprint, process hygiene.

Nothing here imports ``repro`` or NumPy, so ``run.py`` can refuse a bad
environment before it spawns anything.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Set

PERF_DIR = Path(__file__).resolve().parent
#: the checkout: ``benchmarks/perf/`` sits two levels under it
ROOT = PERF_DIR.parents[1]
SRC = ROOT / "src"
#: scratch for child result files; inside the checkout, git-ignored
TMP = ROOT / ".bench_tmp"

SHM_DIR = Path("/dev/shm")


class EnvironmentRefused(RuntimeError):
    """The machine or checkout cannot give a meaningful measurement."""


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def check_environment() -> None:
    """Refuse (raise) rather than print numbers nobody should trust."""
    cores = usable_cores()
    if cores < 2:
        raise EnvironmentRefused(
            f"{cores} usable core(s): every real-backend workload runs 2 "
            "ranks, so fewer than 2 cores measures the scheduler, not the program"
        )
    # Only the checkout's own tree is measured: an installed copy may be
    # another commit, and a benchmark must not silently time that one.
    if not (SRC / "repro" / "__init__.py").is_file():
        raise EnvironmentRefused(
            f"no program to measure: {SRC}/repro is missing from this checkout"
        )


def child_env() -> Dict[str, str]:
    """Environment for every child: checkout source first, 1 BLAS thread."""
    env = dict(os.environ)
    parts = [str(SRC)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def numpy_version() -> str:
    # Read from metadata: importing NumPy here would cost the parent
    # ~0.1 s of CPU right before it starts timing children.
    try:
        from importlib.metadata import version

        return version("numpy")
    except Exception:  # noqa: BLE001 - any metadata failure means "unknown"
        return "unknown"


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def loadavg() -> List[float]:
    try:
        return list(os.getloadavg())
    except OSError:
        return [0.0, 0.0, 0.0]


def fingerprint(sizes: Dict[str, object], seeds: List[int]) -> Dict[str, object]:
    """What two result files must share before their numbers compare."""
    return {
        "cores": usable_cores(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "platform": platform.platform(),
        "seeds": seeds,
        "sizes": sizes,
    }


# -- cleanliness -------------------------------------------------------------

def shm_segments() -> Set[str]:
    """Names in ``/dev/shm`` owned by this user."""
    uid = os.getuid()
    names = set()
    try:
        for entry in os.scandir(SHM_DIR):
            try:
                if entry.stat(follow_symlinks=False).st_uid == uid:
                    names.add(entry.name)
            except OSError:
                continue  # unlinked between listing and stat
    except OSError:
        pass
    return names


def remove_shm(names) -> None:
    for name in names:
        try:
            os.unlink(SHM_DIR / name)
        except OSError:
            pass


def group_members(pgid: int) -> Dict[int, str]:
    """Live processes in process group ``pgid``: ``{pid: cmdline}``.

    Orphans are reparented to init and drop out of any parent/child
    walk, but they keep their process group, and every workload child
    leads its own (``start_new_session``).
    """
    out: Dict[int, str] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            # comm may hold spaces and parentheses: fields start after
            # the last ')': state ppid pgrp ...
            fields = stat[stat.rindex(")") + 2:].split()
            if fields[0] == "Z" or int(fields[2]) != pgid:
                continue
            cmd = Path("/proc", entry, "cmdline").read_bytes()
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        out[int(entry)] = cmd.replace(b"\0", b" ").decode(errors="replace").strip()
    return out


def stray_processes(pgid: int, own_pid: int) -> Dict[int, str]:
    """Group members a finished job should not have left behind.

    The interpreter's ``multiprocessing.resource_tracker`` helper lives
    as long as its parent by design and is not the program's leak.
    """
    return {
        pid: cmd
        for pid, cmd in group_members(pgid).items()
        if pid != own_pid and "resource_tracker" not in cmd
    }


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def reap_group(pgid: int, timeout: float = 5.0) -> None:
    """Kill a process group and wait until no member is left."""
    deadline = time.monotonic() + timeout
    while group_members(pgid) and time.monotonic() < deadline:
        kill_group(pgid)
        time.sleep(0.02)

"""Line coverage of ``src/repro`` with nothing but the standard library.

    python tests/tools/linecov.py run -- python -m pytest -x -q
    python tests/tools/linecov.py report [--show fabric/endpoint.py]
    python tests/tools/linecov.py report --budget tests/linecov_budget.json

``run`` executes the command with a generated ``sitecustomize`` first
on ``PYTHONPATH``, which starts a ``sys.settrace`` recorder in every
Python process the command starts: the test runner and each rank,
daemon or bench child, forked or spawned.  Each process writes the
lines it ran under ``src/repro`` to its own JSON file in the output
directory (``$LINECOV_DIR``, default ``.linecov``) when it exits:
through ``atexit``, or through ``os._exit``, which forked children
exit by and which the recorder wraps.  A process killed by a signal
(a rank that a failed run terminates, a scripted kill -9) writes
nothing, so code that only such a process ran reads as missed.
Several ``run`` calls into one directory add up; remove the directory
to start over.  The generated ``sitecustomize`` shadows any other one
on the path for the command's processes.

``report`` merges the files and prints, for each file under
``src/repro``, how many of its executable lines (those the compiled
code objects map instructions to) no process ran.  ``--show PART``
also lists the missed line ranges of every file whose path contains
``PART``.

``--budget FILE`` checks the counts against a JSON map of file (as the
report names it) to missed lines, where a file not named may miss
none.  The report exits non-zero when a count rose, and also when one
fell but the budget still holds the old count: a budget only shrinks,
and each shrink is written down in the change that earned it.  A file
whose count varies from run to run (code only a timing race reaches)
is budgeted as ``[fewest, most]``; only leaving that range fails.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
ENV_DIR = "LINECOV_DIR"
DEFAULT_DIR = ROOT / ".linecov"

_PREFIX = str(SRC) + os.sep
#: absolute file name -> the lines this process ran in it
_hits: dict = {}
#: co_filename -> its line tracer, or None for a file outside src/repro
_tracers: dict = {}
_real_exit = os._exit


def _trace(frame, event, arg):
    """The global tracer: a per-file line tracer for src/repro code."""
    name = frame.f_code.co_filename
    try:
        return _tracers[name]
    except KeyError:
        pass
    tracer = None
    path = os.path.abspath(name)
    if path.startswith(_PREFIX):
        add = _hits.setdefault(path, set()).add

        def tracer(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return tracer

    _tracers[name] = tracer
    return tracer


def _dump() -> None:
    hits = dict(_hits)  # one C-level copy: other threads may add files
    if not hits:
        return
    fd, part = tempfile.mkstemp(
        prefix=f"{os.getpid()}-", suffix=".part", dir=os.environ[ENV_DIR]
    )
    with os.fdopen(fd, "w") as fh:
        json.dump({name: sorted(lines) for name, lines in hits.items()}, fh)
    # Renamed only once whole: a process killed mid-write leaves a
    # .part file, which the report skips.
    os.replace(part, part[: -len(".part")] + ".json")


def _exit(code):
    _dump()
    _real_exit(code)


def start() -> None:
    """Record this process and every thread it starts (called by the
    generated ``sitecustomize``)."""
    atexit.register(_dump)
    os._exit = _exit
    threading.settrace(_trace)
    sys.settrace(_trace)


def run(command: list, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as boot:
        Path(boot, "sitecustomize.py").write_text(
            "import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import linecov\n"
            "del sys.path[0]\n"
            "linecov.start()\n"
        )
        env = dict(os.environ)
        env[ENV_DIR] = str(out.resolve())
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (boot, env.get("PYTHONPATH")) if p
        )
        return subprocess.call(command, env=env)


def executable_lines(path: Path) -> set:
    """Lines the compiled module maps at least one instruction to; a
    function's own first line is left to the code that defines it."""
    module = compile(path.read_text(), str(path), "exec")
    lines: set = set()
    stack = [module]
    while stack:
        code = stack.pop()
        own = {line for _start, _end, line in code.co_lines() if line}
        if code is not module:
            own.discard(code.co_firstlineno)
        lines |= own
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _ranges(lines: list) -> str:
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def report(out: Path, show: list, budget: Optional[Path] = None) -> int:
    ran: dict = {}
    dumps = sorted(out.glob("*.json"))
    for dump in dumps:
        for name, lines in json.loads(dump.read_text()).items():
            ran.setdefault(name, set()).update(lines)
    print(f"{len(dumps)} process dump(s) in {out}")
    rows = []
    for path in sorted(SRC.rglob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(str(path), set()))
        rows.append((len(missed), len(lines), path.relative_to(SRC).as_posix(), missed))
    rows.sort(key=lambda row: (-row[0], row[2]))
    print(f"{'missed':>7} {'lines':>6} {'run':>7}  file")
    for n_missed, n_lines, name, missed in rows:
        if n_missed:
            share = 1 - n_missed / n_lines
            print(f"{n_missed:>7} {n_lines:>6} {share:>7.1%}  {name}")
    total_missed = sum(row[0] for row in rows)
    total = sum(row[1] for row in rows)
    print(f"total: {total_missed} of {total} executable lines missed "
          f"({1 - total_missed / max(total, 1):.1%} run)")
    for part in show:
        for _n, _lines, name, missed in rows:
            if part in name and missed:
                print(f"{name}: {_ranges(missed)}")
    if budget is None:
        return 0
    return check_budget({name: n for n, _l, name, _m in rows if n}, budget)


def check_budget(missed: dict, budget_path: Path) -> int:
    """1, with a line per offence, when ``missed`` (file -> count) is
    off its budget; 0 when every count matches."""
    budget = json.loads(budget_path.read_text())
    problems = []
    for name in sorted(set(budget) | set(missed)):
        allowed = budget.get(name, 0)
        fewest, most = allowed if isinstance(allowed, list) else (allowed, allowed)
        now = missed.get(name, 0)
        if now > most:
            problems.append(f"{name}: {now} missed lines, over its budget of "
                            f"{most}: test the new lines or delete them")
        elif now < fewest:
            problems.append(f"{name}: {now} missed lines, under its budget of "
                            f"{fewest}: lower the budget in {budget_path.name}")
    for problem in problems:
        print(problem)
    print(f"budget {budget_path.name}: "
          f"{'ok' if not problems else f'{len(problems)} file(s) off budget'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path,
                        default=Path(os.environ.get(ENV_DIR, DEFAULT_DIR)))
    sub = parser.add_subparsers(dest="cmd", required=True)
    run_p = sub.add_parser("run", help="run a command under the recorder")
    run_p.add_argument("command", nargs=argparse.REMAINDER)
    report_p = sub.add_parser("report", help="print missed lines per file")
    report_p.add_argument("--show", action="append", default=[],
                          help="list the missed lines of files matching this")
    report_p.add_argument("--budget", type=Path, default=None,
                          help="fail unless each file's missed-line count "
                          "matches this JSON budget")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        if not command:
            parser.error("run needs a command after --")
        return run(command, args.out)
    return report(args.out, args.show, args.budget)


if __name__ == "__main__":
    sys.exit(main())

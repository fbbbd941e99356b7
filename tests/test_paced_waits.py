"""An allow-list of timed waits in ``src/repro``.

The standing rule (ROADMAP item 1): a wait on a job's path ends on the
event it waits for, never on a timer.  A timer may *bound* a wait — a
deadline, a back-off between retries, a liveness check, a shutdown
fallback, a scripted fault — but may not pace it.  This test finds
every call that can put a timer under a wait and compares the
``(file, kind) -> count`` set with the table below, which gives each
surviving site its reason.  A new tick therefore needs a reviewed line
here; a removed one must leave the table too.

Kinds: ``sleep`` (``time.sleep``), ``settimeout(_POLL_SECONDS)``,
``get(timeout=)``, ``select(timeout=)`` and ``wait(<number>)`` — a
``.wait`` whose timeout is a literal or ``_POLL_SECONDS``.  Waits whose
timeout is computed from a deadline (``cond.wait(remaining)``,
``connection.wait(objs, wake_at - now)``) are what the rule asks for
and are not listed.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

ALLOWED = {
    ("apps/sparse_int_occurrence.py", "sleep"): (
        1, "fault injection: map_sleep_seconds scripts a slow map kernel"),
    ("exec/rank.py", "sleep"): (
        1, "fault injection: FaultPlan.stall_seconds makes a straggler"),
    ("fabric/coordinator.py", "settimeout(_POLL_SECONDS)"): (
        1, "liveness bound: the admission accept re-checks the deadline "
           "and the ranks' processes between connections"),
    ("fabric/coordinator.py", "select(timeout=)"): (
        1, "liveness bound: readiness wakes the result loop; the timeout "
           "only bounds how late a dead rank or the deadline is noticed"),
    ("fabric/endpoint.py", "sleep"): (
        2, "back-off: bind retry on EADDRINUSE and batch resend after a "
           "refused connection"),
    ("fabric/endpoint.py", "settimeout(_POLL_SECONDS)"): (
        1, "shutdown-only: the shuffle listener re-checks its stop flag"),
    ("service/daemon.py", "settimeout(_POLL_SECONDS)"): (
        1, "shutdown-only: bounds the accept loop where shutting the "
           "listener down does not wake accept()"),
}


def _is_tick(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    return isinstance(node, ast.Name) and node.id == "_POLL_SECONDS"


def _kind(call: ast.Call):
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    keywords = {k.arg: k.value for k in call.keywords}
    if func.attr == "sleep":
        return "sleep"
    if func.attr == "settimeout":
        if any(isinstance(a, ast.Name) and a.id == "_POLL_SECONDS" for a in call.args):
            return "settimeout(_POLL_SECONDS)"
    elif func.attr in ("get", "select"):
        if "timeout" in keywords:
            return f"{func.attr}(timeout=)"
    elif func.attr == "wait":
        if any(_is_tick(a) for a in [*call.args, *keywords.values()]):
            return "wait(<number>)"
    return None


def _timed_waits() -> Counter:
    found: Counter = Counter()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                kind = _kind(node)
                if kind is not None:
                    found[(path.relative_to(SRC).as_posix(), kind)] += 1
    return found


def test_every_timed_wait_is_on_the_allow_list():
    found = dict(_timed_waits())
    allowed = {site: count for site, (count, _reason) in ALLOWED.items()}
    assert found == allowed, (
        "timed waits changed — give each new site a reason in ALLOWED "
        "(deadline, back-off, shutdown-only, fault injection, liveness "
        f"bound) or make it event-driven: found {found}, allowed {allowed}"
    )


def test_scanner_sees_each_kind():
    sample = ast.parse(
        "time.sleep(0.1)\n"
        "sock.settimeout(_POLL_SECONDS)\n"
        "sock.settimeout(self.timeout_seconds)\n"
        "q.get(\n    timeout=0.1\n)\n"
        "q.get()\n"
        "sel.select(timeout=_POLL_SECONDS)\n"
        "event.wait(0.5)\n"
        "event.wait(timeout=_POLL_SECONDS)\n"
        "cond.wait(remaining)\n"
        "event.wait()\n"
    )
    kinds = [_kind(n) for n in ast.walk(sample) if isinstance(n, ast.Call)]
    assert sorted(k for k in kinds if k) == sorted([
        "sleep", "settimeout(_POLL_SECONDS)", "get(timeout=)",
        "select(timeout=)", "wait(<number>)", "wait(<number>)",
    ])

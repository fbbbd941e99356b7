"""Suite-wide pytest configuration.

Registers a hypothesis ``ci`` profile and selects it when ``CI`` is set
(GitHub Actions sets it): examples are derived from the test body
instead of a random seed, and no per-example deadline applies, so the
property tiers cannot flake on a slow shared runner.  Locally the
default profile keeps exploring fresh examples.

Resource accounting: every test that builds a ``local``/``cluster``
executor or a job service must leave no child process and no thread it
started alive (after a bounded join) and no more file descriptors open
than it found.  Rank processes outlive a run and live until their
executor closes, so a leak here is a process (or a coordinator or
service thread) that would live as long as the program.
"""

import multiprocessing as mp
import os
import threading
import time

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

#: how long a finished test's child processes and threads get to exit
CHILD_JOIN_SECONDS = 10.0


def _open_fds():
    fds = set(os.listdir("/proc/self/fd"))
    # The interpreter's one shared resource-tracker pipe, opened the
    # first time any test uses the spawn start method, is not the
    # test's to close.
    from multiprocessing import resource_tracker

    tracker_fd = getattr(resource_tracker._resource_tracker, "_fd", None)
    fds.discard(str(tracker_fd))
    return fds


@pytest.fixture(autouse=True)
def _resource_accounting(monkeypatch):
    from repro.exec.cluster import ClusterExecutor
    from repro.service.daemon import JobService

    built = []
    for cls in (ClusterExecutor, JobService):
        def _counting_init(self, *args, __init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            __init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", _counting_init)
    fds_before = _open_fds()
    threads_before = set(threading.enumerate())
    yield
    if not built:
        return
    deadline = time.monotonic() + CHILD_JOIN_SECONDS
    for child in mp.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    alive = mp.active_children()
    for child in alive:
        child.kill()
        child.join()
    for thread in set(threading.enumerate()) - threads_before:
        thread.join(max(0.0, deadline - time.monotonic()))
    threads = [t.name for t in set(threading.enumerate()) - threads_before]
    leaked = sorted(_open_fds() - fds_before)
    details = {
        fd: os.readlink(f"/proc/self/fd/{fd}")
        for fd in leaked if os.path.exists(f"/proc/self/fd/{fd}")
    }
    assert not alive, f"{built} left child processes alive: {alive}"
    assert not threads, f"{built} left threads running: {sorted(threads)}"
    assert not leaked, f"{built} left file descriptors open: {details}"

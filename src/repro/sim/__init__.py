"""Discrete-event simulation engine (substrate S1).

A compact, deterministic, generator-based DES in the style of SimPy,
cut to what the GPU, PCI-e and network models use:

* :class:`Environment` — virtual clock + event calendar
* :class:`Event`, :class:`Timeout`, :class:`AllOf`
* :class:`Process` — generators that yield events
* :class:`Resource` — FIFO contention for links, engines and channels
* :class:`Store`, :class:`FilterStore` — message queues

Everything temporal in the reproduction (GPU kernels, PCI-e copies,
network sends, CPU binning threads) executes on this engine, so
communication/computation overlap — the paper's central concern — is
modelled end to end.

The ``"sim"`` backend sits on top of the engine and the
:mod:`repro.hw` / :mod:`repro.net` models: :mod:`~repro.sim.worker`
(one GPMR rank pricing the shared dataflow), :mod:`~repro.sim.binner`
(the threaded Bin substage) and :mod:`~repro.sim.runtime`
(:class:`~repro.sim.runtime.GPMRRuntime`, the executor).  This package
imports only the engine: those three import the device models, which
import the engine, and :func:`repro.core.executor.make_executor` loads
the runtime on the first ``"sim"`` run.
"""

from .engine import EmptySchedule, Environment
from .events import AllOf, Event, Timeout
from .process import Process
from .resources import Request, Resource
from .store import FilterStore, Store

__all__ = [
    "Environment",
    "EmptySchedule",
    "Event",
    "Timeout",
    "AllOf",
    "Process",
    "Resource",
    "Request",
    "Store",
    "FilterStore",
]

"""The functional dataflow under its old execution-package name, kept
for one ledger import only.

The dataflow lives in :mod:`repro.core.dataflow`, which every backend
imports; the sim worker (:mod:`repro.sim.worker`) runs it and prices
each step in modeled time.  This re-export survives because the perf
ledger's ``perf_probes.py`` still imports ``repro.exec.dataflow``; it
goes once a benchmark change points that import at
:mod:`repro.core.dataflow` (ROADMAP item 12)."""

from ..core.dataflow import *  # noqa: F401,F403

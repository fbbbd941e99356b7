"""The functional dataflow every backend runs, under its execution-package
name.  It lives in :mod:`repro.core.dataflow`, which every backend
imports; the sim worker (:mod:`repro.sim.worker`) runs it and prices
each step in modeled time."""

from ..core.dataflow import *  # noqa: F401,F403

"""The functional dataflow every backend runs, under its execution-package
name.  It lives in :mod:`repro.core.dataflow`, next to the sim worker
that prices it."""

from ..core.dataflow import *  # noqa: F401,F403

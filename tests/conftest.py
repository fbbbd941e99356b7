"""Suite-wide pytest configuration.

Registers a hypothesis ``ci`` profile and selects it when ``CI`` is set
(GitHub Actions sets it): examples are derived from the test body
instead of a random seed, and no per-example deadline applies, so the
property tiers cannot flake on a slow shared runner.  Locally the
default profile keeps exploring fresh examples.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

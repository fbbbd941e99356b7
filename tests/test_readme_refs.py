"""Every ``repro`` name and repo path that README.md puts in backticks
exists.

A dotted name (``repro.core.scheduler.PULL_AHEAD``) resolves by
importing its longest importable module prefix and looking the rest up
as attributes.  A path under ``src/``, ``tests/``, ``benchmarks/``,
``examples/`` or ``.github/`` must exist in the checkout.  Both are
found anywhere inside a backtick span, so a command line such as
``python -m repro.fabric.launch`` or ``python -m pytest
tests/test_obs.py -m slow`` is checked too.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
NAMES = sorted({
    name for span in SPANS
    for name in re.findall(r"(?<![\w./])repro(?:\.\w+)+", span)
})
PATHS = sorted({
    path for span in SPANS
    for path in re.findall(
        r"(?<![\w./])(?:src|tests|benchmarks|examples|\.github)/[\w./-]*\w",
        span,
    )
})


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        module = ".".join(parts[:i])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name != module:
                raise
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_readme_names_resolve():
    assert NAMES
    assert [name for name in NAMES if not _resolves(name)] == []


def test_readme_paths_exist():
    assert PATHS
    assert [path for path in PATHS if not (ROOT / path).exists()] == []

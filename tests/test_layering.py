"""The paper's loop does not import the modeled cluster.

GPMR's contribution is the pull → map → bin → sort → reduce loop
(``repro.core`` and the real backends around it).  The discrete-event
engine, the GT200 and network models, the Phoenix/Mars baselines and
the table harness are this reproduction's stand-in for the paper's
hardware and its evaluation: they depend on the loop, never the
reverse.  This rule reads every module of the loop's packages, plus the
root ``repro/__init__.py`` that every import of them runs, and lists
the imports each runs when it is loaded: the module body, class bodies,
and ``if``/``try``/``with`` blocks, but not function bodies (an import
there runs on the call that needs it) and not ``if TYPE_CHECKING:``
blocks.  None of them may reach a module of ``MODEL``, unless the
target has a line in ``ALLOWED`` with its reason.  A line that names a
target nothing reaches any more is stale and fails too, so the list can
only shrink.

The sim backend itself is reached by name:
:func:`repro.core.executor.make_executor` imports ``repro.sim.runtime``
the first time a ``"sim"`` executor is asked for.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The loop and what serves it; every real-backend process loads these.
LOOP = (
    "core", "exec", "fabric", "apps", "primitives", "workloads",
    "service", "obs", "hashing", "util",
)

#: The modeled cluster, the baselines' models and the paper harness.
MODEL = ("repro.sim", "repro.net", "repro.hw", "repro.baselines", "repro.harness")

ALLOWED = {
    "repro.hw.kernel": (
        "KernelLaunch, the roofline record each mapper, reducer and "
        "primitive returns as its cost; the real backends carry it and "
        "never price it, and the module imports GPUSpec only to type-check"),
}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def load_time_imports(body):
    """Every ``import`` / ``from … import`` statement that runs when a
    module with this ``body`` is loaded."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from load_time_imports(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                block = getattr(node, field, None)
                if isinstance(block, list):
                    yield from load_time_imports(block)


def _module_of(src: Path, path: Path) -> tuple:
    """``(dotted name, package it resolves relative imports in)``."""
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
        return ".".join(parts), ".".join(parts)
    return ".".join(parts), ".".join(parts[:-1])


def _exists(src: Path, dotted: str) -> bool:
    path = src.joinpath(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def targets(src: Path, package: str, node) -> list:
    """The modules one import statement loads.  ``from pkg import name``
    loads ``pkg.name`` when that is a module, else ``pkg``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level:
        parts = package.split(".")
        parts = parts[: len(parts) - node.level + 1]
        base = ".".join(parts + ([node.module] if node.module else []))
    else:
        base = node.module
    found = []
    for alias in node.names:
        sub = f"{base}.{alias.name}"
        found.append(sub if _exists(src, sub) else base)
    return found


def _in_model(target: str) -> bool:
    return any(target == top or target.startswith(top + ".") for top in MODEL)


def model_edges(root: Path) -> list:
    """Sorted ``(importer, target)`` pairs: a loop module that reaches a
    model module when it is loaded."""
    src = root / "src"
    package_root = src / "repro"
    paths = [package_root / "__init__.py"]
    for name in LOOP:
        paths.extend(sorted((package_root / name).rglob("*.py")))
    edges = set()
    for path in paths:
        if not path.is_file():
            continue
        module, package = _module_of(src, path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in load_time_imports(tree.body):
            for target in targets(src, package, node):
                if _in_model(target):
                    edges.add((module, target))
    return sorted(edges)


def audit(root: Path, allowed) -> tuple:
    """``(unlisted, stale)``: edges to a target with no ``allowed`` line,
    and ``allowed`` lines whose target no loop module reaches."""
    edges = model_edges(root)
    unlisted = [f"{src} -> {dst}" for src, dst in edges if dst not in allowed]
    stale = sorted(set(allowed) - {dst for _, dst in edges})
    return unlisted, stale


def test_the_loop_imports_no_model_module_when_loaded():
    unlisted, _ = audit(ROOT, ALLOWED)
    assert not unlisted, (
        "the loop reaches the modeled cluster at import time — import the "
        "model inside the function that needs it, move the code under the "
        f"model, or give the target a reason in ALLOWED: {unlisted}"
    )


def test_allow_list_has_no_stale_lines():
    _, stale = audit(ROOT, ALLOWED)
    assert not stale, (
        "these ALLOWED lines name a target no loop module reaches any "
        f"more — remove them: {stale}"
    )


def _plant(root: Path) -> None:
    files = {
        "src/repro/__init__.py": "from .core import job\n",
        "src/repro/core/__init__.py": "from .job import Job\n",
        "src/repro/core/job.py": (
            "from typing import TYPE_CHECKING\n"
            "from ..hw import kernel\n"
            "from ..hw.kernel import Launch\n"
            "if TYPE_CHECKING:\n"
            "    from ..hw.specs import Spec\n"
            "else:\n"
            "    import repro.net\n"
            "try:\n"
            "    from ..sim import engine\n"
            "except ImportError:\n"
            "    pass\n"
            "\n"
            "def oracle():\n"
            "    from ..baselines import serial\n"
            "\n"
            "class Job:\n"
            "    from ..harness import report\n"
        ),
        "src/repro/hw/__init__.py": "",
        "src/repro/hw/kernel.py": "from .specs import Spec\n",
        "src/repro/hw/specs.py": "",
        "src/repro/sim/__init__.py": "from .engine import Env\n",
        "src/repro/sim/engine.py": "",
        "src/repro/net/__init__.py": "",
        "src/repro/harness/__init__.py": "from ..core import Job\n",
        "src/repro/harness/report.py": "",
    }
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_planted_load_time_edges_are_flagged(tmp_path):
    """Module, ``else``, ``try`` and class-body imports count; a function
    body and a ``TYPE_CHECKING`` block do not; ``from pkg import mod``
    reaches ``pkg.mod``; the model's own imports are not checked."""
    _plant(tmp_path)
    assert model_edges(tmp_path) == [
        ("repro.core.job", "repro.harness.report"),
        ("repro.core.job", "repro.hw.kernel"),
        ("repro.core.job", "repro.net"),
        ("repro.core.job", "repro.sim.engine"),
    ]
    unlisted, stale = audit(tmp_path, {"repro.hw.kernel": "the descriptor"})
    assert unlisted == [
        "repro.core.job -> repro.harness.report",
        "repro.core.job -> repro.net",
        "repro.core.job -> repro.sim.engine",
    ]
    assert stale == []


def test_stale_allow_lines_are_flagged(tmp_path):
    """A line for a target no loop module reaches must leave the list."""
    _plant(tmp_path)
    allowed = {
        "repro.hw.kernel": "the descriptor",
        "repro.harness.report": "reviewed",
        "repro.net": "reviewed",
        "repro.sim.engine": "reviewed",
        "repro.hw.specs": "reached only under TYPE_CHECKING",
    }
    assert audit(tmp_path, allowed) == ([], ["repro.hw.specs"])

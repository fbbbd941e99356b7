"""An allow-list of definitions in ``src/repro`` that no entry point reaches.

The standing rule: code that nothing runs is deleted, not kept "just
in case".  This test lists every top-level function and
class in ``src/repro`` and every public method or property of a
top-level class, and looks for a reference to each name from
``src/``, ``benchmarks/`` (the perf ledger in ``benchmarks/perf/``
included) or ``examples/``.  A reference is a ``Name``, an
``Attribute`` or an import alias.  These do not count: the ``def`` or
``class`` statement itself, ``__all__`` strings, the re-exports in a
package's ``__init__.py``, and the tests.

Matching is by bare name, so ``GPU.fits`` is reached by any ``.fits``
anywhere.  That is conservative on purpose: the rule can miss dead code
but never flags live code.  A definition that is reached only from the
tests needs a line in ``ALLOWED`` with its reason: public API a user
calls, a CLI entry point, a reference oracle the tests compare
against, or a helper the tests inspect the models with.  A line whose
name is gone, or is now referenced, is stale and fails too, so the
list can only shrink.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Trees whose references keep a definition alive.
REFERENCE_DIRS = ("src", "benchmarks", "examples")

ALLOWED = {
    # -- reference oracles the tests compare a job against
    "apps/kmeans.py::kmc_validate": "reference oracle: KMC centers vs Lloyd's step",
    "apps/linear_regression.py::lr_validate": "reference oracle: LR sums vs the serial fold",
    "apps/sparse_int_occurrence.py::sio_validate": "reference oracle: SIO counts vs bincount",
    "apps/word_occurrence.py::wo_validate": "reference oracle: WO counts vs a Counter",
    "baselines/serial.py::matrix_product": "reference oracle: MM vs the exact product",
    "core/dataflow.py::map_worker": (
        "reference oracle: one rank's map half with no transport, the "
        "exchange tests' expected output"),
    # -- public API for users
    "apps/linear_regression.py::lr_fit": "public API: the fitted line of an LR job",
    "core/partitioner.py::HashPartitioner": "public API: a key-hash partitioner for custom jobs",
    "core/sorter.py::ComparisonSorter": (
        "public API: a comparison sorter for keys the radix sort refuses"),
    "core/scheduler.py::ScheduleTrace.to_records": (
        "public API: a schedule saved as plain records, to replay later"),
    "core/scheduler.py::ScheduleTrace.from_records": (
        "public API: a saved schedule loaded for replay"),
    "workloads/readers.py::NpySpanReader": "public API: run a job over a .npy file (README)",
    "workloads/readers.py::TextSpanReader": "public API: run a job over a text file (README)",
    "workloads/readers.py::StreamedDataset": (
        "public API: the Dataset facade over a span reader (README)"),
    # -- helpers the tests inspect the models and results with
    "core/kvset.py::KeyValueSet.from_buffers": (
        "test surface: the per-part codec's round trip under pack_parts"),
    "core/stats.py::JobStats.total_pairs_logical": "test surface: pair-count invariants",
    "core/stats.py::JobStats.total_local_exchange_bytes": (
        "test surface: shuffle-byte invariants"),
    "hw/cpu.py::HostCPU.flops_time": "test surface: the host CPU's compute rate",
    "hw/gpu.py::GPU.fits": "test surface: device-memory fit of a modeled GPU",
    "hw/gpu.py::GPU.kernel_time": "test surface: kernel pricing without running it",
    "hw/memory.py::DeviceAllocator.peak_used": "test surface: allocator high-water mark",
    "hw/memory.py::DeviceAllocator.largest_free_block": "test surface: allocator fragmentation",
    "hw/meter.py::Meter.as_dict": "test surface: a meter's busy time by tag",
    "util/rng.py::child_generators": "test surface: independent seeded streams",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(package: Path) -> dict:
    """``{"file.py::name" or "file.py::Class.member": bare name}`` for
    every checked definition under ``package``."""
    found = {}
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not _is_dunder(node.name):
                found[f"{rel}::{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (
                        isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("_")
                    ):
                        found[f"{rel}::{node.name}.{member.name}"] = member.name
    return found


def references(root: Path) -> set:
    """Every bare name referenced from the trees in ``REFERENCE_DIRS``."""
    names = set()
    for top in REFERENCE_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            reexports = path.name == "__init__.py"
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias) and not reexports:
                    names.add(node.name.rsplit(".", 1)[-1])
                    if node.asname:
                        names.add(node.asname)
    return names


def unreferenced(root: Path) -> list:
    reached = references(root)
    return sorted(
        key for key, name in definitions(root / "src" / "repro").items()
        if name not in reached
    )


def audit(root: Path, allowed) -> tuple:
    """``(unlisted, stale)``: unreferenced definitions with no
    ``allowed`` line, and ``allowed`` lines that no longer name an
    unreferenced definition."""
    found = unreferenced(root)
    unlisted = [key for key in found if key not in allowed]
    stale = sorted(set(allowed) - set(found))
    return unlisted, stale


def test_every_unreferenced_definition_is_on_the_allow_list():
    unlisted, _ = audit(ROOT, ALLOWED)
    assert not unlisted, (
        "no entry point reaches these definitions — delete them (with "
        "their tests), or give each a reason in ALLOWED: "
        f"{unlisted}"
    )


def test_allow_list_has_no_stale_lines():
    _, stale = audit(ROOT, ALLOWED)
    assert not stale, (
        "these ALLOWED lines name a definition that is gone or is now "
        f"referenced — remove them: {stale}"
    )


def _plant(root: Path) -> None:
    files = {
        "src/repro/__init__.py": (
            "from .mod import planted, used\n"
            "__all__ = ['planted', 'used']\n"
        ),
        "src/repro/mod.py": (
            "def used():\n"
            "    return Box().size\n"
            "\n"
            "def planted():\n"
            "    return 1\n"
            "\n"
            "class Box:\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 0\n"
            "    def unused(self):\n"
            "        return self._hidden()\n"
            "    def _hidden(self):\n"
            "        return 0\n"
            "    def __repr__(self):\n"
            "        return 'Box'\n"
        ),
        "benchmarks/perf/probe.py": "from repro import used\nused()\n",
        "examples/demo.py": "import repro\nrepro.used()\n",
        "tests/test_mod.py": "from repro.mod import planted, Box\nplanted()\nBox().unused()\n",
    }
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_planted_unreferenced_definitions_are_flagged(tmp_path):
    """A test call, an ``__init__`` re-export and an ``__all__`` string
    do not reach a definition; private and dunder members are not
    checked."""
    _plant(tmp_path)
    assert unreferenced(tmp_path) == ["mod.py::Box.unused", "mod.py::planted"]
    unlisted, stale = audit(tmp_path, {"mod.py::planted": "public API"})
    assert unlisted == ["mod.py::Box.unused"]
    assert stale == []


def test_stale_allow_lines_are_flagged(tmp_path):
    """A line for a name that is gone, or that something now reaches,
    must leave the list."""
    _plant(tmp_path)
    allowed = {
        "mod.py::planted": "public API",
        "mod.py::Box.unused": "public API",
        "mod.py::deleted": "public API",
        "mod.py::used": "public API",
    }
    assert audit(tmp_path, allowed) == ([], ["mod.py::deleted", "mod.py::used"])

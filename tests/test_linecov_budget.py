"""The line-coverage budget: its check, and that it names real files.

``tests/tools/linecov.py report --budget tests/linecov_budget.json``
fails when a file's missed-line count leaves its budget in either
direction; the CI ``line-coverage`` job runs it after recording tier-1
and bench smoke.  Recording takes minutes, so tier-1 checks only the
comparison and the file names here.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUDGET = ROOT / "tests" / "linecov_budget.json"

sys.path.insert(0, str(ROOT / "tests" / "tools"))
from linecov import SRC, check_budget  # noqa: E402

del sys.path[0]


def _budget(tmp_path, entries):
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(entries))
    return path


def test_budget_fails_a_rise_and_an_unrecorded_fall(tmp_path, capsys):
    budget = _budget(tmp_path, {"a.py": 3, "b.py": [1, 4]})
    assert check_budget({"a.py": 3, "b.py": 1}, budget) == 0
    assert check_budget({"a.py": 3, "b.py": 4}, budget) == 0
    assert check_budget({"a.py": 4, "b.py": 2}, budget) == 1
    assert "over its budget of 3" in capsys.readouterr().out
    assert check_budget({"a.py": 2, "b.py": 2}, budget) == 1
    assert "lower the budget" in capsys.readouterr().out
    # A file the budget does not name may miss nothing.
    assert check_budget({"a.py": 3, "b.py": 2, "c.py": 1}, budget) == 1
    # A budgeted file that now misses nothing must leave the budget.
    assert check_budget({"b.py": 2}, budget) == 1


def test_budget_names_only_files_that_exist():
    budget = json.loads(BUDGET.read_text())
    assert budget, "the budget is empty"
    for name, allowed in budget.items():
        assert (SRC / name).is_file(), f"{name} is budgeted but gone"
        counts = allowed if isinstance(allowed, list) else [allowed]
        assert all(isinstance(n, int) and n > 0 for n in counts), name

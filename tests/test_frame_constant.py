"""The frame bound is a protocol constant, held in one place.

``repro.fabric.wire.MAX_FRAME_BYTES`` bounds every frame on every peer,
and only ``wire._frame_head`` (send) and ``wire.recv_raw_frame``
(receive) read it, at call time.  A copy of the value elsewhere, or a
``max_frame_bytes`` setting threaded through a class, a CLI flag or an
ASSIGN key, would let two peers disagree on it and would go stale under
a test's patch.  This rule fails when any ``src/repro`` file other than
``fabric/wire.py`` names either spelling, in code or in prose.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the one file that may name the bound
HOME = SRC / "fabric" / "wire.py"

NAME = re.compile(r"max_frame_bytes", re.IGNORECASE)


def test_only_the_wire_names_the_frame_bound():
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        if path != HOME
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if NAME.search(line)
    ]
    assert offenders == [], "\n".join(offenders)


def test_the_wire_holds_the_constant():
    assert re.search(r"^MAX_FRAME_BYTES = ", HOME.read_text(), re.MULTILINE)

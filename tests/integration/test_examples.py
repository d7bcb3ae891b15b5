"""Smoke tests: every example script must run cleanly end to end and write
what its committed goldens hold.

Each script runs from a copy in a temporary directory, so it writes into
that directory's ``output/``, never into ``examples/output``.  Every file
it writes must have a golden in ``examples/output``: PNGs compare by
decoded pixels (their zlib streams can differ with the zlib build), PDFs
are not compared, and every other file must be byte-equal.  To change a
golden, run the script in place (``python examples/<name>.py``) and commit
what it rewrote.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.render.png_codec import decode_png

EXAMPLES_DIR = Path(__file__).parent.parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
GOLDENS = EXAMPLES_DIR / "output"


def _changed_goldens(written: Path) -> list[str]:
    """The files in ``written`` that differ from their golden, or have none."""
    bad = []
    for path in sorted(written.iterdir()):
        golden = GOLDENS / path.name
        if not golden.is_file():
            bad.append(f"{path.name} (not committed)")
        elif path.suffix == ".pdf":
            continue
        elif path.suffix == ".png":
            if not np.array_equal(decode_png(golden.read_bytes()),
                                  decode_png(path.read_bytes())):
                bad.append(path.name)
        elif path.read_bytes() != golden.read_bytes():
            bad.append(path.name)
    return bad


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    proc = subprocess.run(
        [sys.executable, str(copy)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (
        f"{script.name} failed:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    assert proc.stdout  # every example narrates what it did
    bad = _changed_goldens(tmp_path / "output")
    assert not bad, "example goldens changed:\n  " + "\n  ".join(bad)


def test_examples_exist():
    assert len(EXAMPLES) >= 3  # quickstart + domain scenarios (deliverable b)
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names

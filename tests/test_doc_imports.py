"""Every ``from repro... import ...`` line in a Python example of README.md
or docs/*.md must import.

Lines are checked one by one, not whole blocks: some examples elide code
with ``...`` and are not valid Python.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
_IMPORT_LINE = re.compile(r"^[ \t]*from (repro[\w.]*) import ([^#\n]+)", re.M)


def _documented_imports() -> list[tuple[str, str, str]]:
    """Distinct (doc file, module, name) triples, in file order."""
    found: dict[tuple[str, str, str], None] = {}
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        for block in _PYTHON_BLOCK.findall(doc.read_text(encoding="utf-8")):
            for module, names in _IMPORT_LINE.findall(block):
                for name in names.split(","):
                    found[(doc.name, module, name.split(" as ")[0].strip())] = None
    return list(found)


_IMPORTS = _documented_imports()


@pytest.mark.parametrize("doc,module,name", _IMPORTS,
                         ids=[f"{d}:{m}.{n}" for d, m, n in _IMPORTS])
def test_documented_import_resolves(doc, module, name):
    exec(f"from {module} import {name}", {})

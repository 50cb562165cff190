"""Every name the package exports is used by something besides its own unit
tests: another package module, the benchmark harness, the README, the
acceptance suite or the test oracles.  An export that only its unit tests
call is dead code and should be deleted, not re-exported."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphsample"


def _exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name
                  for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def _reader_lines() -> list:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    files += [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py",
              ROOT / "tests" / "oracles.py"]
    return [line for path in files for line in path.read_text().splitlines()]


def test_every_export_has_a_reader():
    lines = _reader_lines()
    unread = []
    for name in _exported_names():
        used = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(used.search(line) and not own.match(line) for line in lines):
            unread.append(name)
    assert unread == []

"""Every name the package exports is used by something besides its own unit
tests: another package module, the benchmark harness, the README, the
acceptance suite or the test oracles.  An export that only its unit tests
call is dead code and should be deleted, not re-exported.

The exports are read from ``__init__.py`` itself: its ``_LAZY`` table,
module -> names, the one place an export is listed.  Each name loads its
module on first use, so ``import graphsample`` loads no submodule."""

import ast
import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import graphsample

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphsample"


def _exports() -> dict:
    """Exported name -> the package module it comes from."""
    home = {}
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_LAZY"]:
            home.update((name, module)
                        for module, names in ast.literal_eval(node.value).items()
                        for name in names)
    return home


def _exported_names() -> list:
    return sorted(_exports())


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


def test_checked_names_are_the_package_exports():
    # the reader above checks every export, the lazy ones included
    assert _exported_names() == graphsample.__all__
    assert set(graphsample._HOME) <= set(_exported_names())


def test_every_export_is_its_home_module_object():
    for name, module in _exports().items():
        home = importlib.import_module(f"graphsample.{module}")
        assert getattr(graphsample, name) is getattr(home, name), name
    assert set(_exports()) <= set(dir(graphsample))


def _fresh(script: str) -> list:
    """The lines a fresh Python process prints running script."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), path])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_star_import_binds_every_export_and_imports_load_lazily():
    """In a fresh process: ``import graphsample`` loads no submodule (nor
    fractions), and ``from graphsample import *`` binds every export."""
    script = textwrap.dedent("""
        import sys
        import graphsample
        print(sorted(m for m in sys.modules
                     if m.startswith("graphsample.") or m == "fractions"))
        space = {}
        exec("from graphsample import *", space)
        print(sorted(name for name in graphsample.__all__
                     if space.get(name) is not getattr(graphsample, name)))
    """)
    assert _fresh(script) == ["[]", "[]"]


def test_io_loads_only_structures():
    """In a fresh process, ``import graphsample.io`` loads no package module
    but structures: estimate and models are read for annotations only."""
    script = textwrap.dedent("""
        import sys
        import graphsample.io
        print(sorted(m for m in sys.modules if m.split(".")[0] == "graphsample"))
    """)
    assert _fresh(script) == ["['graphsample', 'graphsample.io', 'graphsample.structures']"]


def test_readme_quick_tour_runs(capsys):
    """README's "Library quick tour" block runs as written, each reps= cut
    to 2_000, and the idempotence test it prints passes."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library quick tour\n\n```python\n(.*?)^```", text,
                      re.M | re.S).group(1)
    exec(compile(re.sub(r"\breps=[\d_]+", "reps=2_000", block), "README.md", "exec"), {})
    assert "idempotence(n=4,m=3,k=2): PASS" in capsys.readouterr().out

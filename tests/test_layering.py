"""Module layering: no module reaches into another's private names, and
importing the package leaves heavy optional subpackages unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import levyheat

PACKAGE = Path(levyheat.__file__).resolve().parent
GUARDED = ("solver", "analysis")


def private_imports(path):
    """(line, module, name) of each underscore name imported from a
    guarded module, by relative or absolute import, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        module = node.module.rsplit(".", 1)[-1]
        if module not in GUARDED:
            continue
        if node.level == 0 and not node.module.startswith("levyheat."):
            continue
        found += [(node.lineno, module, alias.name) for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_no_private_imports_from_solver_or_analysis():
    offenders = {p.name: private_imports(p)
                 for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_checker_sees_private_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from .solver import _thread_map, mc_moments\n"
                   "def f():\n"
                   "    from levyheat.analysis import _ensemble_rows\n")
    assert private_imports(src) == [(1, "solver", "_thread_map"),
                                    (3, "analysis", "_ensemble_rows")]


def test_import_leaves_scipy_signal_out():
    # scipy (scipy.signal above all) and the schema validator cost more
    # import time than numpy; the package loads them where they are used
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, levyheat; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'jsonschema', 'referencing')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_all_lists_each_imported_name_once():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    names = levyheat.__all__
    assert len(names) == len(set(names))
    assert set(names) == imported | {"__version__"}
    scope = {}
    exec("from levyheat import *", scope)
    assert set(names) <= set(scope)

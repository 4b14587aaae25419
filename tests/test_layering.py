"""Module layering: no module reaches into another's private names,
importing the package leaves heavy optional subpackages unloaded, and the
entry points above the quadrature layer take no tuning knobs."""

import ast
import importlib
import inspect
import json
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
    src.write_text("from .solver import _fork_map, mc_moments\n"
                   "def f():\n"
                   "    from levyheat.analysis import _scan_grid\n")
    assert private_imports(src) == [(1, "solver", "_fork_map"),
                                    (3, "analysis", "_scan_grid")]


def package_env():
    """The environment of a child process that imports this levyheat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_import_leaves_scipy_signal_out():
    # scipy and jsonschema (with referencing) are test-only oracles, which
    # cost more import time than numpy; no command loads them
    code = ("import sys, levyheat; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'jsonschema', 'referencing')))")
    out = subprocess.run([sys.executable, "-c", code], env=package_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# Loaded by `import levyheat`: every layer module, which a tracer may look
# up in sys.modules right after the import.  Not loaded, before or after a
# continuum oracle call on delta data: importlib.metadata (which brings
# email), the config validator, hashlib (which the manifest writer uses and
# numpy.random loads for any ensemble) and numpy.ma (which np.unique
# imports).  Neither concurrent nor multiprocessing loads anywhere: a
# multi-chunk ensemble marches in the calling process and workers it
# forks with os.fork, which write into anonymous mmaps.
LAYERS = ("cli", "analysis", "solver", "conv_calculus", "levy_kernel",
          "measure_init", "noise_field")
DEFERRED = ("importlib.metadata", "email", "levyheat.schema", "hashlib",
            "numpy.ma", "concurrent", "multiprocessing")


def test_start_up_module_set():
    code = f"""
import json, sys, levyheat
def loaded(names={DEFERRED!r}):
    return {{"layers": [n for n in {LAYERS!r}
                       if "levyheat." + n not in sys.modules],
            "deferred": sorted(m for m in sys.modules for d in names
                               if m == d or m.startswith(d + "."))}}
after_import = loaded()
levyheat.pam_second_moment_oracle(
    levyheat.brownian(1.0), levyheat.delta(), 1.0, [0.1, 0.3],
    [-1.0, 0.0, 1.0], mode="continuum")
after_oracle = loaded()
levyheat.mc_moments(
    levyheat.brownian(1.0), levyheat.delta(), levyheat.sigma_linear(1.0),
    dt=0.02, nx=64, half_width=4.0, t_end=0.1,
    seeds=2 * levyheat.solver.BATCH, t_probes=[0.1], x_probes=[0.0])
print(json.dumps([after_import, after_oracle,
                  loaded(("concurrent", "multiprocessing"))]))
"""
    env = dict(package_env(), LEVYHEAT_THREADS="2")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    after_import, after_oracle, after_ensemble = json.loads(out.stdout)
    assert after_import == {"layers": [], "deferred": []}
    assert after_oracle["deferred"] == []
    # two chunks over two processes, and still no pool
    assert after_ensemble["deferred"] == []


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


def module_functions(name):
    mod = importlib.import_module(f"levyheat.{name}")
    return {fname: obj for fname, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__}


def test_no_batch_thread_budget_or_stray_spec_parameters():
    # the seed chunk is solver.BATCH, the worker count LEVYHEAT_THREADS,
    # the allocation budget solver.MAX_CELLS, the quadrature rule
    # levy_kernel.XI_TOL and XI_NODES; noise is drawn from seeds by
    # noise_field.noise_rows, never passed in
    knobs = []
    for name in ("solver", "analysis", "conv_calculus", "noise_field",
                 "levy_kernel", "measure_init"):
        assert not hasattr(importlib.import_module(f"levyheat.{name}"),
                           "QuadratureSpec")
        for fname, fn in module_functions(name).items():
            params = inspect.signature(fn).parameters
            knobs += [(name, fname, p) for p in ("batch", "threads",
                                                 "max_cells", "spec",
                                                 "noise")
                      if p in params]
    assert knobs == []
    for gone in ("QuadratureSpec", "NoiseLattice", "sample_noise"):
        assert not hasattr(levyheat, gone)

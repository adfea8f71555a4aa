import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import robustsurv


def test_import_loads_no_optimizer_or_quadrature():
    # the package evaluates its integrals in closed form and solves with its
    # own Newton iterations, so importing it must not pay for scipy.optimize
    # or any quadrature module
    probe = (
        "import sys, robustsurv; "
        "print(sorted(m for m in sys.modules if m == 'scipy.optimize' "
        "or m.startswith('scipy.optimize.') or 'quadrature' in m))"
    )
    src = str(Path(robustsurv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_package_surface_is_declared():
    # every name a module lists in __all__ exists, and every name the package
    # re-exports is in its module's __all__, so a deleted name cannot linger
    for info in pkgutil.walk_packages(robustsurv.__path__, "robustsurv."):
        module = importlib.import_module(info.name)
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{info.name}.__all__ lists missing names {missing}"
    tree = ast.parse(Path(robustsurv.__file__).read_text(encoding="utf-8"))
    reexports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert reexports
    for node in reexports:
        module = importlib.import_module(f"robustsurv.{node.module}")
        undeclared = [a.name for a in node.names if a.name not in module.__all__]
        assert not undeclared, f"robustsurv re-exports {undeclared} outside {node.module}.__all__"

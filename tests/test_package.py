import ast
import dataclasses
import functools
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import robustsurv


def _run_python(code, *args):
    """Run code in a fresh interpreter that imports robustsurv from this tree."""
    src = str(Path(robustsurv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_import_loads_no_optimizer_or_quadrature():
    # numpy is the one run-time dependency: the package evaluates its
    # integrals and special functions in closed form and solves with its own
    # Newton iterations, so importing it loads no scipy module, no quadrature
    # module, and no process pool (a one-worker run never starts one)
    done = _run_python(
        "import sys, robustsurv.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.') "
        "or 'quadrature' in m or m == 'concurrent.futures.process'))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_every_command_runs_without_scipy(tmp_path):
    # with scipy unimportable, every CLI command still exits 0
    commands = [
        ["fit", "veteran", "--arm-column", "arm", "--arm", "A", "--alpha-grid", "0:1:0.5"],
        ["test", "veteran", "--hypothesis", "shape=1", "--alpha", "0.5"],
        ["compare", "veteran", "--arm-column", "arm", "--hypothesis", "shape1=shape2 dir=greater",
         "--alpha", "0.5"],
        ["kmplot", "veteran"],
        ["influence", "--theta", "2,5", "--hypothesis", "shape=5", "--alpha", "0.5", "--t-points", "20"],
        ["simulate", "--family", "exp", "--theta", "1", "--censoring-mean", "9", "--n", "30",
         "--replications", "5", "--alpha", "0", "--hypothesis", "mean=1"],
    ]
    argvs = [argv + ["--out", str(tmp_path / argv[0])] for argv in commands]
    done = _run_python(
        "import json, sys; sys.modules['scipy'] = None; from robustsurv.cli import main; "
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))",
        json.dumps(argvs),
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(commands), done.stdout


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


def _named_outside_the_tests() -> set:
    """Every name in code (an ast.Name or ast.Attribute; a string or
    docstring does not count) in a package module other than __init__, in a
    demo or in the benchmark."""
    package = Path(robustsurv.__file__).resolve().parent
    root = package.parents[1]
    assert (root / "demos").is_dir() and (root / "bench").is_dir()
    files = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    files += [*(root / "demos").glob("*.py"), *(root / "bench").rglob("*.py")]
    named = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return named


def test_every_exported_function_has_a_caller_outside_the_tests():
    # no public function that only the tests use: each function in the
    # robustsurv namespace is named in code outside the tests
    functions = {name for name, obj in vars(robustsurv).items() if inspect.isfunction(obj)}
    assert functions
    assert sorted(functions - _named_outside_the_tests()) == []


def test_every_public_method_of_an_exported_class_has_a_caller_outside_the_tests():
    # likewise for each public method and property that a class in the
    # robustsurv namespace defines (static, class or cached ones included)
    kinds = (property, functools.cached_property, staticmethod, classmethod)
    members = {
        (cls.__name__, name)
        for cls in vars(robustsurv).values() if inspect.isclass(cls)
        for name, obj in vars(cls).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or isinstance(obj, kinds))
    }
    assert members
    named = _named_outside_the_tests()
    assert sorted(f"{cls}.{name}" for cls, name in members if name not in named) == []


def test_every_field_of_an_exported_dataclass_is_read():
    # no report field that nothing reads: each field of each dataclass in the
    # robustsurv namespace is loaded as an attribute (ast.Attribute in a Load
    # context, by name) in a package module other than __init__, a demo, the
    # benchmark or a test
    package = Path(robustsurv.__file__).resolve().parent
    root = package.parents[1]
    files = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    for folder in ("demos", "bench", "tests"):
        assert (root / folder).is_dir()
        files += (root / folder).rglob("*.py")
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    classes = [obj for obj in vars(robustsurv).values() if inspect.isclass(obj) and dataclasses.is_dataclass(obj)]
    assert classes
    unread = [f"{cls.__name__}.{f.name}" for cls in classes for f in dataclasses.fields(cls) if f.name not in read]
    assert sorted(unread) == []

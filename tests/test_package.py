import os
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

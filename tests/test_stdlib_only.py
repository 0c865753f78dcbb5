"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency, so importing any
module of the package must not load numpy, even where numpy is
installed.  The check runs in a fresh interpreter: this test process
may already hold numpy through a test dependency.
"""

import os
import subprocess
import sys

import repro

SCRIPT = """
import importlib, pkgutil, sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(len(names), "numpy" in sys.modules)
"""


def test_importing_every_module_loads_no_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    count, numpy_loaded = result.stdout.split()
    assert int(count) > 50  # every subpackage was walked
    assert numpy_loaded == "False"

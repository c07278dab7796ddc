"""numpy is the only package ``repro`` needs at run time."""

import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Imports every repro module, then prints the top-level modules that are
# neither in the standard library nor already loaded at start-up (site
# hooks of the environment, such as setuptools' .pth shims).
PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_importing_every_module_loads_only_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    assert json.loads(done.stdout) == ["numpy", "repro"]


def test_pyproject_declares_numpy_only():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == ["numpy"]

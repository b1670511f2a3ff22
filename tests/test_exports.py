import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fedstat

MODULES = ["fedstat"] + [
    f"fedstat.{info.name}"
    for info in pkgutil.iter_modules(fedstat.__path__)
    if info.name != "cli"  # the command line exports nothing
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


def test_import_leaves_scipy_linalg_unloaded():
    # A cold import pays for scipy.special (the logistic sigmoid) but not
    # for scipy.linalg, which only a plug-in sandwich read needs.
    src = Path(fedstat.__file__).resolve().parents[1]
    script = (
        "import sys, fedstat, fedstat.cli\n"
        "print('scipy.special' in sys.modules, 'scipy.linalg' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False"]

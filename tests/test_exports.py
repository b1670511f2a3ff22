import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_engine_does_not_reference_schedules():
    # The engine reads a ScheduleTable; it never builds one.
    assert "schedules" not in inspect.getsource(fedstat.engine)
    assert "schedules" not in vars(fedstat.engine)


def test_run_from_the_package_namespace():
    fed = fedstat.federation_of([fedstat.ClientModel("quadratic", np.zeros(1))])
    rows = fedstat.table(fedstat.ExplicitSchedule(intervals=(1,), etas=(0.5,)), 3)
    assert isinstance(rows, fedstat.ScheduleTable)
    path = fedstat.run(fed, rows, np.ones(1), seed=0)
    np.testing.assert_array_equal(path.points[:, 0], [0.5, 0.25, 0.125])
    assert path.comm_times is rows.comm_times

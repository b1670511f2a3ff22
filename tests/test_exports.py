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


def _fresh_interpreter(script: str) -> list[str]:
    """The words that ``script`` prints in a new interpreter importing from src."""
    src = Path(fedstat.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_leaves_scipy_linalg_unloaded():
    # A cold import loads neither scipy.special (the logistic sigmoid, loaded
    # by a logistic config) nor scipy.linalg, which only a plug-in sandwich
    # read needs.  It does load the bare scipy package, whose version
    # sys.modules["scipy"] gives, and numpy.random, which numpy loads lazily.
    script = (
        "import sys, fedstat, fedstat.cli\n"
        "print(*(name in sys.modules for name in\n"
        "        ('scipy.special', 'scipy.linalg', 'scipy', 'numpy.random')))\n"
    )
    assert _fresh_interpreter(script) == ["False", "False", "True", "True"]


def test_only_a_logistic_config_loads_scipy_special():
    script = (
        "import sys\n"
        "from fedstat import ExperimentConfig, run_experiment, simulate_table\n"
        "config = ExperimentConfig(dimension=2, clients=2, rounds=20,\n"
        "                          target_observations=None, replications=2)\n"
        "run_experiment(config)\n"
        "simulate_table([0.5], [0.95], steps=100, replications=1000, seed=1)\n"
        "print('scipy.special' in sys.modules)\n"
        "ExperimentConfig(model='logistic', heterogeneity=False)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    assert _fresh_interpreter(script) == ["False", "True"]


def test_engine_does_not_reference_schedules():
    # The engine reads a ScheduleTable; it never builds one.
    assert "schedules" not in inspect.getsource(fedstat.engine)
    assert "schedules" not in vars(fedstat.engine)


def test_inference_states_take_the_critical_value_as_a_number():
    # The harness turns alpha into a critical value once per experiment.
    assert "critvals" not in vars(fedstat.rscale)
    assert "NormalDist" not in vars(fedstat.plugin)


def test_run_from_the_package_namespace():
    fed = fedstat.federation_of([fedstat.ClientModel("quadratic", np.zeros(1))])
    rows = fedstat.table(fedstat.ExplicitSchedule(intervals=(1,), etas=(0.5,)), 3)
    assert isinstance(rows, fedstat.ScheduleTable)
    path = fedstat.run(fed, rows, np.ones(1), seed=0)
    np.testing.assert_array_equal(path.points[:, 0], [0.5, 0.25, 0.125])
    assert path.comm_times is rows.comm_times

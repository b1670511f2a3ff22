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
    # A cold import loads neither scipy.special nor scipy.linalg, which no
    # fedstat code calls, nor multiprocessing, which only a process pool
    # needs.  It does load the bare scipy package, whose version
    # sys.modules["scipy"] gives, and numpy.random, which numpy loads lazily.
    script = (
        "import sys, fedstat, fedstat.cli\n"
        "print(*(name in sys.modules for name in\n"
        "        ('scipy.special', 'scipy.linalg', 'multiprocessing', 'scipy', 'numpy.random')))\n"
    )
    assert _fresh_interpreter(script) == ["False", "False", "False", "True", "True"]


def test_no_fedstat_call_loads_scipy_special():
    # The logistic sigmoid is numpy's exp: a logistic config, its run and its
    # inference draws leave scipy.special unloaded and the bare scipy package
    # loaded.  A one-worker run and a table run start no process pool.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from fedstat import ExperimentConfig, engine, harness, run_experiment, simulate_table\n"
        "config = ExperimentConfig(dimension=2, clients=2, rounds=20,\n"
        "                          target_observations=None, replications=2)\n"
        "run_experiment(config)\n"
        "simulate_table([0.5], [0.95], steps=100, replications=1000, seed=1)\n"
        "logistic = ExperimentConfig(model='logistic', dimension=2, clients=2,\n"
        "                            heterogeneity=False, rounds=20,\n"
        "                            target_observations=None, replications=2)\n"
        "run_experiment(logistic, workers=1)\n"
        "fed = harness.build_federation(logistic)\n"
        "draws = list(engine.inference_draws(fed, 1, np.ones((3, 2))))\n"
        "print(len(draws), *(name in sys.modules for name in\n"
        "                    ('multiprocessing', 'scipy.special', 'scipy')))\n"
    )
    assert _fresh_interpreter(script) == ["1", "False", "False", "True"]


def test_engine_does_not_reference_schedules():
    # The engine reads a ScheduleTable; it never builds one.
    assert "schedules" not in inspect.getsource(fedstat.engine)
    assert "schedules" not in vars(fedstat.engine)


def test_schedules_owns_the_round_search():
    # The warm-up rule t_T = W + P[T - W] lives in schedules alone: the
    # harness calls its T search and never the prefix helpers behind it.
    assert fedstat.harness.rounds_for_target is fedstat.schedules.rounds_for_target
    source = inspect.getsource(fedstat.harness)
    assert "family_prefix" not in source and "_warmup" not in source
    assert "rounds_for_target" in fedstat.schedules.__all__
    assert "rounds_for_target" not in fedstat.harness.__all__


def test_rscale_state_keeps_its_sums_private():
    # V_hat is what the state estimates; the pivot and sums behind it are not read.
    for name in ("pivot", "A", "b", "s", "q"):
        assert not hasattr(fedstat.rscale.RScaleState, name)
        assert not hasattr(fedstat.rscale.RScaleState(1), name)


def test_engine_does_not_reference_the_inference_states():
    # The engine only optimizes; the harness feeds the states from its path.
    source = inspect.getsource(fedstat.engine)
    assert "plugin" not in source and "rscale" not in source
    assert "plugin" not in vars(fedstat.engine) and "rscale" not in vars(fedstat.engine)


def test_inference_states_take_the_critical_value_as_a_number():
    # The harness turns alpha into a critical value once per experiment.
    assert "critvals" not in vars(fedstat.rscale)
    assert "NormalDist" not in vars(fedstat.plugin)


def test_run_from_the_package_namespace():
    fed = fedstat.Federation([fedstat.ClientModel("quadratic", np.zeros(1))])
    rows = fedstat.explicit_table((1, 1, 1), (0.5, 0.5, 0.5))
    assert isinstance(rows, fedstat.ScheduleTable)
    path = fedstat.run(fed, rows, np.ones(1), seed=0)
    np.testing.assert_array_equal(path.points[:, 0], [0.5, 0.25, 0.125])
    assert path.table is rows

"""The output bytes of three tiny experiments, pinned by their sha256.

A change that keeps every path bit for bit keeps these digests.  A change
that moves bits on purpose updates them and records the move in CHANGES.md.
The configs cover each model kind: linear on C1 (affine-map rounds),
logistic on P(0.5) with warm-up (step loop, a buffer refill) and
heterogeneous quadratic (noiseless, both methods).  The same digests hold
when OpenBLAS runs two threads.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedstat
from fedstat.harness import parse_config_text, run_experiment

CONFIGS = {
    "linear-c1": """
        model = linear
        dimension = 3
        clients = 4
        schedule = constant
        warmup_fraction = 0.05
        target_observations = 600
        replications = 3
        seed = 3
    """,
    "logistic-p05": """
        model = logistic
        dimension = 3
        clients = 3
        heterogeneity = off
        schedule = power
        schedule_exponent = 0.5
        warmup_fraction = 0.05
        target_observations = 3000
        replications = 2
        seed = 4
    """,
    "quadratic-heterogeneous": """
        model = quadratic
        dimension = 2
        clients = 3
        heterogeneity = on
        schedule = log
        gamma0 = 0.6
        alpha = 0.6
        rounds = 300
        replications = 2
        seed = 5
    """,
}

DIGESTS = {
    # The paths restated when a linear response became a column-by-column
    # sum, the same bits for a row however many rows are drawn with it; the
    # replication and report bytes did not move.
    "linear-c1": {
        "paths/rep_0000.csv": "3d909d2b85daf91cb9803a59c37074300bce089f308ada92d50134ac4e5e1741",
        "paths/rep_0001.csv": "5ac737a319e4c6220724662af93e70218d2c54a93b5c1b3a1760c2e15f15309d",
        "paths/rep_0002.csv": "6826feaa22101abb50066ab4ec5239a2a3fecb2b923908cddff4c69572f759b0",
        "replications.csv": "362d939affc2727412e71f83fd192bdfacc2d81f62f73a5910fb934424734a9d",
        "report.csv": "cfa4f349a0fbc9d1c806aeef9757a6cbe50124cf7dd243809e669ca0bc5fb86e",
    },
    # The paths restated when the local step became eta a~ / (1 + exp(-a~'x))
    # with numpy's exp, in place of eta a~ times scipy's expit: one rounding
    # fewer and another exp, so the last bits move; the replication and
    # report bytes did not move.  numpy picks its exp loop by CPU, so these
    # path digests hold per host.
    "logistic-p05": {
        "paths/rep_0000.csv": "6d04e1917a12d1f79a132096342324d6362f5c1437bdaa55400b46826a5a33c4",
        "paths/rep_0001.csv": "fa58b05717f4b5f3d7faa5c3a89c4557414ac95a0a3e68db8b41f1fae0d6171e",
        "replications.csv": "ab18cd5058853ebfd2013e39c88f22f9bac7b7d2faacd3fd27556d96d1d7267b",
        "report.csv": "92e14f8581004a919bb3f2ab51cb0cc241b8cd0ae1fed2668cc1cb84513252f4",
    },
    "quadratic-heterogeneous": {
        "paths/rep_0000.csv": "c2a6db166c6be58f2fb5caa89763cd52efff05a05850d01a6ecd9a06e30937ce",
        "paths/rep_0001.csv": "c2a6db166c6be58f2fb5caa89763cd52efff05a05850d01a6ecd9a06e30937ce",
        "replications.csv": "7a4a78566c33ad276b6f2558a5845ec5279ac043421a471cbada21e457c89f1b",
        "report.csv": "aec82dab8d889f29fae6b20fb88eea2631604a58a86328e93ad604b3e27b4d8d",
    },
}


def digests(out_dir):
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*.csv"))
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_bytes_are_pinned(name, tmp_path):
    config = parse_config_text(CONFIGS[name])
    run_experiment(config, out_dir=tmp_path, dump_paths=config.replications)
    assert digests(tmp_path) == DIGESTS[name]


def test_output_bytes_are_pinned_under_two_blas_threads(tmp_path):
    # OpenBLAS may split a product over its threads; no output byte may move.
    here = Path(__file__).resolve().parent
    src = Path(fedstat.__file__).resolve().parents[1]
    script = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from test_bytes import CONFIGS, digests, parse_config_text, run_experiment\n"
        "found = {}\n"
        "for name, text in CONFIGS.items():\n"
        "    config = parse_config_text(text)\n"
        "    out = Path(sys.argv[1]) / name\n"
        "    run_experiment(config, out_dir=out, dump_paths=config.replications)\n"
        "    found[name] = digests(out)\n"
        "print(json.dumps(found))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(here)]),
               OPENBLAS_NUM_THREADS="2")
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == DIGESTS

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
    "linear-c1": {
        "paths/rep_0000.csv": "0e83dfc401b8a4dfcc097fd72ead8bea100839497b3933a816354b52a112cb58",
        "paths/rep_0001.csv": "80841f87fec173eaa7069cd16584de4b90d1a7c9424dbcd9520358df0c8e985b",
        "paths/rep_0002.csv": "02a5d4d9a6eaed48ab444f5aebeca2fbd3a113db0671f504eeb5558a8e25410a",
        "replications.csv": "362d939affc2727412e71f83fd192bdfacc2d81f62f73a5910fb934424734a9d",
        "report.csv": "cfa4f349a0fbc9d1c806aeef9757a6cbe50124cf7dd243809e669ca0bc5fb86e",
    },
    "logistic-p05": {
        "paths/rep_0000.csv": "5d29b93048fbfc0492c4d0eeca5c05e49cc90a42b93685c35707ae992a4a065c",
        "paths/rep_0001.csv": "df9b8ca480931d2111af55a9c96350f256b66a84beb94d20bd1c9ca55b1bb096",
        "replications.csv": "06136873d5d37f81a39423905c6eae671e77f868ba7cdb24e4094c4dc66c6072",
        "report.csv": "a5c131e2b1bdf5f2d58fe962362812a15e8c7f716c9f0fbe64b3df71fcfafdc3",
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

"""Print a sha256 digest of every output a change must keep byte-identical.

For seeds 0-9 of the benchmark's two coverage workloads (their parameters
from ``perfbench/workloads.py``, each config built as ``perfbench/cell.py``
builds it), one ``run_experiment`` with workers=1 that dumps every
replication's path; for seeds 0-2 of the ``critvals-table`` workload, the
``save_csv`` text of the table ``perfbench/cell.py:critvals_cell`` builds;
then one ``fedstat curve`` on a linear P(0.5) config with 5% warm-up; then,
for seeds 0-1, the ``engine.save_path_csv`` text of one logistic
``engine.run`` (K = 10, d = 5) on rounds whose takes are longer than the
sample buffer (``GROWN``, the intervals of ``tests/test_engine.py``'s
``TestRoundGroups``).  Prints one ``sha256  name`` line per ``report.csv``,
``replications.csv``, path dump, table, curve and path text, then a digest
of all of them.  Takes about a minute.  It digests the checkout it lives
in, so to check a change, run each checkout's own copy and diff the two:

    python ../parent/tools/bytes_check.py > before.txt   # the parent's checkout
    python tools/bytes_check.py > after.txt
    diff before.txt after.txt
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cell import _config, critvals_cell  # noqa: E402
import numpy as np  # noqa: E402
from fedstat import cli, config, engine, harness, schedules  # noqa: E402
from workloads import params_for  # noqa: E402

WORKLOADS = ("coverage-c1-linear", "coverage-p05-logistic")
TABLE = "critvals-table"
CHECKPOINTS = "1,7,100,256,300,512,1000,2049,3000,5000"
GROWN = (1,) * 300 + (255, 256, 257, 2047, 2049, 3000, 5000) + (1,) * 40


def main() -> None:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name in WORKLOADS:
            for seed in range(10):
                cfg = _config({"params": params_for(name, tiny=False), "seed": seed})
                cell = out / name / f"seed{seed}"
                harness.run_experiment(cfg, out_dir=cell, dump_paths=cfg.replications)
        for seed in range(3):
            table = critvals_cell({"params": params_for(TABLE, tiny=False), "seed": seed})
            (out / TABLE).mkdir(exist_ok=True)
            (out / TABLE / f"seed{seed}.csv").write_text(table["output"])
        p05 = schedules.CommunicationSchedule("power", exponent=0.5, warmup_fraction=0.05)
        text = config.config_text(harness.ExperimentConfig(schedule=p05, replications=4))
        (out / "curve.txt").write_text(text)
        argv = ["curve", "--config", str(out / "curve.txt"), "--checkpoints", CHECKPOINTS,
                "--out", str(out / "curve")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        logistic = harness.ExperimentConfig(
            model="logistic", clients=10, dimension=5, heterogeneity=False
        )
        federation = harness.build_federation(logistic)
        grown = schedules.explicit_table(GROWN, (0.002,) * len(GROWN))
        for seed in range(2):
            sync = engine.run(federation, grown, np.zeros(5), seed)
            with open(out / f"grown-seed{seed}.csv", "w") as stream:
                engine.save_path_csv(sync, stream)
        for path in sorted(out.rglob("*.csv")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(out)}")
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    lines.append(f"{total}  total of {len(lines)} files")
    print("\n".join(lines))


if __name__ == "__main__":
    main()

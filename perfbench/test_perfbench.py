"""Self-tests of the benchmark: a tiny pass of every workload through run.py.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from workloads import END_TO_END, PER_LAYER, WORKLOADS, params_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = (
    "engine.local_steps", "engine.rounds", "engine.take_calls", "models.draw_rows",
    "schedules.intervals_calls", "plugin.observe_calls", "rscale.observe_calls",
)


def bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_pass(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    units = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    manifest = json.loads(lines[-2].removeprefix("manifest "))
    assert manifest["workload"] == workload and manifest["seed"] == 3
    assert manifest["params"] == params_for(workload, tiny=True)
    hashes = manifest["report_sha256"]
    assert len(hashes) == 2 and len(set(hashes)) == 1  # traced == untraced, cell == cell
    if not trace:
        assert all(v > 0 for v in metrics.values())
        return
    for name in EXACT_COUNTS:
        assert isinstance(metrics[name], int)
    if WORKLOADS[workload]["kind"] == "coverage":
        params = params_for(workload, tiny=True)
        assert metrics["engine.rounds"] == manifest["rounds"] * params["replications"]
        assert metrics["plugin.observe_calls"] == metrics["engine.rounds"]
        assert metrics["rscale.observe_calls"] == metrics["engine.rounds"]
        assert metrics["engine.run_samples"] == params["replications"]
        assert metrics["engine.run_s"] > metrics["engine.self_s"] > 0
    else:
        assert metrics["critvals.simulate_statistics_s"] > 0
        assert metrics["engine.run_s"] == 0


def test_raising_cell_counts_every_operation_failed(tmp_path):
    params = params_for("coverage-c1-linear", tiny=True)
    per_cell = params["replications"] * len(params["methods"])
    spec = {
        "mode": "cell", "kind": "coverage", "trace": False, "workers": 1, "seed": 0,
        "params": {**params, "model": "nope"}, "out_dir": str(tmp_path), "spans_path": "",
    }
    raised = run.run_child(spec, deadline=time.monotonic() + 60)
    assert raised["ok"] is False and raised["error"].startswith("ValueError")
    cells = [raised, {"ok": True, "failed_ops": 1, "wall_s": 1.0}]
    assert run.count_ops("coverage", params, cells) == (2 * per_cell, per_cell + 1)
    assert run.count_ops("coverage", params, cells[:1]) == (per_cell, per_cell)
    assert run.gate("coverage", params, cells[:1]) == ["no cell completed"]
    metrics = run.end_to_end(cells[:1], [])
    assert set(metrics) == set(END_TO_END) and metrics["cell_s"] == raised["wall_s"]


def test_gate_rejects_broken_outputs():
    report = (
        "method,schedule,t_T,coverage,coverage_se,mean_len,len_sd,acf,nu_hat,failures\n"
        "plugin,C1,10000,0.25,0,1,1,1,1,0\n"
        "rscale,C1,10000,1,0,1,1,1,1,0\n"
    )
    problems = run.check_report(report, replications=40)
    assert len(problems) == 1 and problems[0].startswith("plugin")
    levels = run.REFERENCE_LEVELS
    header = "beta," + ",".join(str(p) for p in levels)
    good = {b: list(row) for b, row in run.REFERENCE_ROWS.items()}
    text = "\n".join([header] + [f"{b}," + ",".join(map(str, r)) for b, r in good.items()])
    assert run.check_table(text, replications=100_000) == []
    bad = {b: [v * 1.2 for v in r] for b, r in good.items()}
    bad[0.0][4] = 1e-3
    text = "\n".join([header] + [f"{b}," + ",".join(map(str, r)) for b, r in bad.items()])
    problems = run.check_table(text, replications=100_000)
    assert any("not exactly 0" in p for p in problems)
    assert any("from the reference" in p for p in problems)


def test_directory_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("critvals-table", 0, root=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

"""The verdict of tools/bench_pairs.py, on made-up paired runs."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import quartiles, verdict, wins  # noqa: E402

PARENT = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]  # median 10, IQR 0.15


def test_quartiles_interpolate():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_ties_win_nothing():
    assert wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "lower") == 1
    assert wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "higher") == 1


@pytest.mark.parametrize("better, step", [("lower", -0.5), ("higher", 0.5)])
def test_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_iqr(better, step):
    change = [p + step for p in PARENT]
    assert verdict(PARENT, change, better, 0.1) == "gain"
    # Two losses in ten pairs: the gap alone is no gain.
    lost = change[:8] + [p - step for p in PARENT[8:]]
    assert verdict(PARENT, lost, better, 0.1) == "no change"
    # Ten wins by less than the parent's IQR are no gain either.
    near = [p + step / 10 for p in PARENT]
    assert verdict(PARENT, near, better, 0.1) == "no change"


@pytest.mark.parametrize("better, step", [("lower", 2.0), ("higher", -2.0)])
def test_worse_beyond_the_bound(better, step):
    assert verdict(PARENT, [p + step for p in PARENT], better, 0.1) == "worse"
    assert verdict(PARENT, [p + step for p in PARENT], better, 0.25) == "no change"


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent = [8.0, 12.0, 8.0, 12.0, 8.0, 12.0, 8.0, 12.0, 8.0, 12.0]  # IQR 4, median 10
    change = [p + 0.5 for p in parent]
    assert verdict(parent, change, "lower", 0.25) == "unresolved"
    assert verdict(parent, change, "lower", 0.5) == "no change"


def test_no_gain_counts_when_a_run_went_wrong():
    change = [p - 0.5 for p in PARENT]
    assert verdict(PARENT, change, "lower", 0.1, sound=False) == "invalid"
    assert verdict(PARENT, [p + 2.0 for p in PARENT], "lower", 0.1, sound=False) == "worse"


def test_a_failed_run_withholds_the_gain_and_fails_the_tool(tmp_path, monkeypatch, capsys):
    benchmark = {"run_seconds": 40,
                 "end_to_end": [{"name": "cell_s", "better": "lower", "bound": 0.1}]}
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(benchmark))
    seen = []

    def run_once(root, workload, seed, seconds):
        seen.append(seconds)
        value = 10.0 if root.name == "parent" else 9.0 + (seed - 4000) / 100
        failed = int(root.name == "change" and seed == 4001)
        result = {"correct": True, "failed": failed, "attempted": 5,
                  "metrics": {"cell_s": {"value": value}}}
        return {"exit": 0, "result": result, "digests": ["a"]}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w"]
    assert bench_pairs.main(argv) == 1
    out = capsys.readouterr().out
    assert "invalid" in out and "gain" not in out
    assert "problem: change seed 4001: 1 of 5 operations failed" in out
    assert set(seen) == {40}

"""Paired benchmark runs of a parent and a change, with one verdict per metric.

    python tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10] [--first-seed 4001]

PARENT and CHANGE are two source checkouts.  Pair i runs
``perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0`` in both,
with S = first seed + i on both sides and SECONDS the ``run_seconds`` of
``BENCHMARK.json``; the parent runs first in even pairs and the change in odd
ones.  The tool refuses to run unless ``perfbench/`` and
``BENCHMARK.json`` are byte-identical in the two checkouts.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's median
and quartiles, the change's wins and ties, and one verdict (``verdict``):
``gain``, ``worse``, ``unresolved`` or ``no change``.  It also reports every
run that exits non-zero, has ``correct: false`` or failed operations, and
every pair whose report digests differ; after any such report no metric reads
``gain`` (it reads ``invalid``) and the tool exits with status 1.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by linear interpolation."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change reads better; a tie is no win."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            sound: bool = True) -> str:
    """The verdict on one metric from its paired runs (parent[i], change[i]).

    ``gain``: the change wins at least 9 in 10 pairs (ties win nothing) and
    the medians differ, in its favour, by more than the parent's IQR.
    ``worse``: the change's median is worse than the parent's by more than
    ``bound``, a fraction of the parent's median.  ``unresolved``: the
    parent's IQR is wider than that bound.  Otherwise ``no change``.
    ``sound`` is false when a run failed or was incorrect, or the two sides'
    reports differ; a gain then reads ``invalid``, since it does not count.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (quartiles(change)[1] - parent_median)
    allowed = bound * abs(parent_median)
    if 10 * wins(parent, change, better) >= 9 * len(parent) and gap > q3 - q1:
        return "gain" if sound else "invalid"
    if -gap > allowed:
        return "worse"
    if q3 - q1 > allowed:
        return "unresolved"
    return "no change"


def benchmark_files(root: Path) -> dict[str, bytes]:
    """The bytes of ``BENCHMARK.json`` and every file under ``perfbench/``,
    by path, without Python's bytecode caches."""
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for path in sorted((root / "perfbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            files[str(path.relative_to(root))] = path.read_bytes()
    return files


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``root``: its exit status,
    its last-line result and its manifest's report digests."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    run = {"exit": done.returncode, "result": None, "digests": []}
    for line in lines:
        if line.startswith("manifest "):
            run["digests"] = json.loads(line[len("manifest "):])["report_sha256"]
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        pass
    return run


def problems(side: str, seed: int, run: dict) -> list[str]:
    result = run["result"]
    found = []
    if run["exit"] != 0:
        found.append(f"exit status {run['exit']}")
    if result is None:
        found.append("no result line")
    else:
        if not result.get("correct"):
            found.append("correct: false")
        if result.get("failed"):
            found.append(f"{result['failed']} of {result['attempted']} operations failed")
    return [f"{side} seed {seed}: {text}" for text in found]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=4001)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if benchmark_files(roots["parent"]) != benchmark_files(roots["change"]):
        print("bench_pairs: perfbench/ or BENCHMARK.json differ between the checkouts",
              file=sys.stderr)
        return 2
    benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    values = {side: {m["name"]: [] for m in metrics} for side in roots}
    reported = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_once(roots[side], args.workload, seed, seconds) for side in order}
        shown = []
        for side in order:
            reported += problems(side, seed, runs[side])
            result = runs[side]["result"] or {"metrics": {}}
            for metric in metrics:
                value = result["metrics"].get(metric["name"], {}).get("value", float("nan"))
                values[side][metric["name"]].append(value)
                shown.append(f"{side[0]}.{metric['name']}={value:.6g}")
        # Each side lists one digest per cell, and the sides may run a
        # different number of cells.
        if set(runs["parent"]["digests"]) != set(runs["change"]["digests"]):
            reported.append(f"seed {seed}: the report digests differ")
        print(f"pair {i + 1} seed {seed} ({order[0]} first): " + " ".join(shown), flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs of {seconds:g} s runs")
    print(f"{'metric':<12} {'parent q1/median/q3':>28} {'change q1/median/q3':>28}"
          f" {'wins':>5} {'ties':>5}  verdict")
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        # A pair counts only when both of its runs read the metric.
        pairs = [(p, c) for p, c in zip(values["parent"][name], values["change"][name])
                 if not (math.isnan(p) or math.isnan(c))]
        if not pairs:
            print(f"{name:<12} no pair of runs read it")
            continue
        parent, change = map(list, zip(*pairs))
        ties = sum(c == p for p, c in pairs)
        cells = ["/".join(f"{v:.4g}" for v in quartiles(side)) for side in (parent, change)]
        print(f"{name:<12} {cells[0]:>28} {cells[1]:>28} {wins(parent, change, better):>5}"
              f" {ties:>5}  {verdict(parent, change, better, metric['bound'], not reported)}")
    for line in reported:
        print(f"problem: {line}")
    return 1 if reported else 0


if __name__ == "__main__":
    sys.exit(main())

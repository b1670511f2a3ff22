"""fedstat benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload coverage-c1-linear --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; fedstat is imported from ``src/``.
Every cell and every set-up probe runs in a fresh interpreter (cell.py) with
one BLAS thread, and no cell uses more workers than the machine has cores.

``--trace 0`` alternates a set-up probe and an untraced cell until ``--seconds``
is spent (at least three cells) and reports the medians of the end-to-end
metrics (the smallest peak RSS).
``--trace 1`` runs one untraced cell, then the same cell traced with
workers=1, and reports the per-layer metrics. Either way the correctness gate
checks every cell; its findings go to stdout before the last line, which is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The manifest and
per-cell details are also written to ``.perfbench_out/`` in the checkout.
See README.md for what each metric means and which change should move it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, WORKLOADS, params_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

MIN_CELLS = 3
RUN_DEADLINE_S = 165.0  # a run must exit within 180 s; later children are killed

# Asymptotic quantiles of t*(beta) (Abadir & Paruolo 1997), the same values as
# tests/test_critvals.py REFERENCE_ROWS.
REFERENCE_LEVELS = (0.01, 0.025, 0.05, 0.1, 0.5, 0.9, 0.95, 0.975, 0.99)
REFERENCE_ROWS = {
    0.0: (-8.634, -6.753, -5.324, -3.877, 0.0, 3.877, 5.324, 6.753, 8.634),
    0.5: (-7.386, -5.851, -4.621, -3.446, 0.0, 3.446, 4.621, 5.851, 7.386),
}
# Allowance for the 1000-step left-endpoint discretization of the Brownian
# functional; halving the grid moves the 97.5% quantile by well under 1%.
DISCRETIZATION_REL = 0.01
BAND_Z = 5.0
BINOMIAL_TAIL = 1e-4


# --- children ----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(spec: dict, deadline: float) -> dict:
    """Run cell.py on ``spec``; its JSON result plus the wall time seen from here."""
    cmd = [sys.executable, str(HERE / "cell.py"), json.dumps(spec)]
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the cell and any pool workers
        proc.communicate()
        return {"ok": False, "error": "timed out", "wall_s": time.perf_counter() - started}
    wall = time.perf_counter() - started
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"ok": False, "error": f"exit code {proc.returncode}, no result"}
    if proc.returncode != 0:
        result = {"ok": False, "error": result.get("error", f"exit code {proc.returncode}")}
    result["wall_s"] = wall
    return result


# --- correctness gate ----------------------------------------------------------


def binomial_band(n: int, p: float, tail: float = BINOMIAL_TAIL) -> tuple[int, int]:
    """Success counts k of Binomial(n, p) with both tail probabilities >= ``tail``."""
    pmf = [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    cdf, lo = 0.0, 0
    for k in range(n + 1):
        cdf += pmf[k]
        if cdf >= tail:
            lo = k
            break
    sf, hi = 0.0, n
    for k in range(n, -1, -1):
        sf += pmf[k]
        if sf >= tail:
            hi = k
            break
    return lo, hi


def parse_csv(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]


def check_report(text: str, replications: int, alpha: float = 0.05) -> list[str]:
    """Coverage of each method within the binomial band of its replication count."""
    header, *rows = parse_csv(text)
    col = {name: i for i, name in enumerate(header)}
    problems = []
    for row in rows:
        method = row[col["method"]]
        n = replications - int(row[col["failures"]])
        if n == 0:
            continue  # every replication failed: counted as failed operations
        covered = round(float(row[col["coverage"]]) * n)
        lo, hi = binomial_band(n, 1.0 - alpha)
        if not lo <= covered <= hi:
            problems.append(
                f"{method}: coverage {covered}/{n} outside binomial band [{lo}, {hi}]"
            )
    return problems


def check_table(text: str, replications: int) -> list[str]:
    """Zero median, antithetic symmetry, and the Monte Carlo band of the reference rows."""
    header, *rows = parse_csv(text)
    levels = [float(v) for v in header[1:]]
    table = {float(row[0]): [float(v) for v in row[1:]] for row in rows}
    problems = []
    for beta, values in table.items():
        by_level = dict(zip(levels, values))
        if by_level.get(0.5) != 0.0:
            problems.append(f"beta={beta:g}: 0.5 quantile {by_level.get(0.5)!r} is not exactly 0")
        for p, q in by_level.items():
            mirror = next((v for lv, v in by_level.items() if abs(lv - (1.0 - p)) < 1e-9), None)
            if mirror is not None and abs(q + mirror) > 1e-12 * max(1.0, abs(q)):
                problems.append(f"beta={beta:g}: q({p:g}) = {q!r} but q({1 - p:g}) = {mirror!r}")
    for beta, reference in REFERENCE_ROWS.items():
        values = next((v for b, v in table.items() if abs(b - beta) <= 1e-9), None)
        if values is None:
            problems.append(f"beta={beta:g} row missing")
            continue
        for i, (p, q) in enumerate(zip(levels, values)):
            if p == 0.5 or p not in REFERENCE_LEVELS:
                continue
            ref = reference[REFERENCE_LEVELS.index(p)]
            # Density at q from the nearest tabulated levels; the smaller
            # estimate gives the wider (safer) standard error.
            slopes = [
                (levels[j] - p) / (values[j] - q)
                for j in (i - 1, i + 1)
                if 0 <= j < len(levels) and values[j] != q
            ]
            se = math.sqrt(p * (1.0 - p) / replications) / min(slopes)
            tol = BAND_Z * se + DISCRETIZATION_REL * abs(ref)
            if abs(q - ref) > tol:
                problems.append(
                    f"beta={beta:g} level {p:g}: {q:.4f} is {abs(q - ref):.4f} from "
                    f"the reference {ref} (band {tol:.4f})"
                )
    return problems


def gate(kind: str, params: dict, cells: list[dict]) -> list[str]:
    ok = [c for c in cells if c["ok"]]
    if not ok:
        return ["no cell completed"]
    problems = []
    if len({c["output"] for c in ok}) > 1:
        problems.append("cells of one seed wrote different report bytes")
    if kind == "coverage":
        if len({(c["rounds"], c["t_T"]) for c in ok}) > 1:
            problems.append("resolved rounds / t_T differ between cells")
        if not all(math.isfinite(c["mean_error"]) for c in ok):
            problems.append("mean_error is not finite")
        problems += check_report(ok[0]["output"], params["replications"])
    else:
        problems += check_table(ok[0]["output"], params["replications"])
    return problems


# --- metrics -------------------------------------------------------------------


def count_ops(kind: str, params: dict, cells: list[dict]) -> tuple[int, int]:
    """(attempted, failed); every operation of a cell that raised counts as failed.

    An operation is one method outcome per replication, or one table.
    """
    per_cell = params["replications"] * len(params["methods"]) if kind == "coverage" else 1
    failed = sum(c["failed_ops"] if c["ok"] else per_cell for c in cells)
    return per_cell * len(cells), failed


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(cells: list[dict], probes: list[dict]) -> dict:
    ok = [c for c in cells if c["ok"]]
    return {
        "setup_s": median_or_zero(p["setup_s"] for p in probes if "setup_s" in p),
        "reps_per_s": median_or_zero(c["replications"] / c["run_s"] for c in ok),
        "cell_s": median_or_zero(c["wall_s"] for c in cells),
        # The smallest cell peak: glibc keeps 0, 1 or 2 freed blocks of the
        # largest temporary mapped from cell to cell, which the median would keep.
        "peak_rss_mb": min((c["peak_rss_mb"] for c in ok), default=0.0),
    }


def per_layer(untraced: dict, traced: dict, workers: int) -> dict:
    """The traced cell's layer metrics plus the two that compare it with the untraced cell."""
    if not traced["ok"]:
        return {name: 0 for name in PER_LAYER}
    layers = dict(traced["layers"])
    setup = layers.pop("setup_s")
    replicate = layers.pop("replicate_s")
    layers["harness.pool_overhead_s"] = 0.0
    layers["trace.overhead_frac"] = 0.0
    if untraced["ok"] and workers > 1:
        phase = untraced["run_s"] - setup - layers["harness.report_write_s"]
        layers["harness.pool_overhead_s"] = phase * workers - replicate
    elif untraced["ok"]:
        layers["trace.overhead_frac"] = traced["run_s"] / untraced["run_s"] - 1.0
    return layers


# --- manifest ------------------------------------------------------------------


def git_state() -> dict:
    """HEAD sha and dirty flag when ROOT is itself a git work tree, else unknown."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=20
        )

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"sha": None, "dirty": None}
        sha = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": dirty}


def manifest(args, workers: int, params: dict, cells: list[dict], probes: list[dict]) -> dict:
    ok = [c for c in cells if c["ok"]]
    first = ok[0] if ok else {}
    return {
        "git": git_state(),
        **first.get("versions", {"python": sys.version.split()[0]}),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: child_env()[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "workers": workers,
        "params": params,
        "rounds": first.get("rounds"),
        "t_T": first.get("t_T"),
        "report_sha256": [hashlib.sha256(c["output"].encode()).hexdigest() for c in ok],
        "cells": len(cells),
        "probes": len(probes),
    }


# --- driver --------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    return parser.parse_args(argv)


def measure(args, kind: str, params: dict, workers: int, work: Path):
    """Run the cells and probes of one invocation; returns (cells, probes)."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    base = {"kind": kind, "params": params, "seed": args.seed}

    def cell(index: int, trace: bool) -> dict:
        spec = {
            **base, "mode": "cell", "trace": trace, "workers": 1 if trace else workers,
            "out_dir": str(work / f"cell-{index}"),
            "spans_path": str(OUT / f"{args.workload}.spans.npz"),
        }
        return run_child(spec, deadline)

    if args.trace:
        return [cell(0, False), cell(1, True)], []
    cells, probes = [], []
    min_cells = 2 if args.tiny else MIN_CELLS
    while True:
        round_started = time.monotonic()
        probes.append(run_child({**base, "mode": "probe"}, deadline))
        cells.append(cell(len(cells), False))
        now = time.monotonic()
        next_end = now + (now - round_started)
        if next_end > deadline or (len(cells) >= min_cells and next_end - started > args.seconds):
            return cells, probes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fedstat" / "__init__.py").is_file():
        print(f"perfbench: no fedstat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    kind = workload["kind"]
    params = params_for(args.workload, args.tiny)
    workers = min(workload["workers"], len(os.sched_getaffinity(0)))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"tmp-{os.getpid()}"
    work.mkdir()
    try:
        cells, probes = measure(args, kind, params, workers, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = gate(kind, params, cells)
    attempted, failed = count_ops(kind, params, cells)
    if args.trace:
        metrics, units = per_layer(cells[0], cells[1], workers), PER_LAYER
    else:
        metrics, units = end_to_end(cells, probes), END_TO_END
    info = manifest(args, workers, params, cells, probes)
    record = {
        "manifest": info,
        "metrics": metrics,
        "problems": problems,
        "cells": [{k: v for k, v in c.items() if k != "output"} for c in cells],
        "probes": probes,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    for cell in cells:
        if not cell["ok"]:
            print(f"cell failed: {cell['error']}")
    for problem in problems:
        print(f"gate: {problem}")
    for metric, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{metric} = {shown} {units[metric]}")
    print("manifest " + json.dumps(info))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

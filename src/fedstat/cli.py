"""Command-line interface: run experiments, convergence curves, critical values."""

from __future__ import annotations

import argparse
import io
import os
import sys
from pathlib import Path

from . import critvals, harness

_DEFAULT_BETAS = "0,0.3333333333333333,0.5,0.6666666666666666"
_DEFAULT_LEVELS = "0.01,0.025,0.05,0.1,0.5,0.9,0.95,0.975,0.99"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedstat",
        description="Locally updated SGD simulator with online confidence intervals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a coverage experiment from a config file")
    run.add_argument("--config", required=True, help="flat key=value configuration file")
    run.add_argument("--threads", default="1", help="replication worker count")
    run.add_argument("--out", default=None, help="directory for report.csv and replications.csv")
    run.add_argument(
        "--dump-paths", default="0", metavar="N",
        help="dump the synchronized paths of the first N replications",
    )

    curve = sub.add_parser("curve", help="estimation error against communication rounds")
    curve.add_argument("--config", required=True)
    curve.add_argument(
        "--checkpoints", required=True,
        help="comma-separated, strictly increasing round counts, each >= 1",
    )
    curve.add_argument("--threads", default="1")
    curve.add_argument("--out", default=None, help="directory for curve.csv")

    cv = sub.add_parser("critvals", help="regenerate the critical-value table")
    cv.add_argument("--betas", default=_DEFAULT_BETAS)
    cv.add_argument("--levels", default=_DEFAULT_LEVELS)
    cv.add_argument("--steps", default="1000")
    cv.add_argument("--reps", default="50000")
    cv.add_argument("--seed", default="0")
    cv.add_argument("--out", default=None, help="output CSV file (default: stdout)")
    return parser


def _values(text: str, option: str, parse: type = float) -> list:
    """The comma-separated values of ``option``; one that does not parse
    raises ``ValueError`` naming the option."""
    return critvals._numbers([v.strip() for v in text.split(",") if v.strip()], option, parse)


def _integer(text: str, option: str) -> int:
    """The one integer value of ``option``; one that does not parse raises
    ``ValueError`` naming the option, as ``_values`` does."""
    return critvals._numbers([text], option, int)[0]


def _cmd_run(args: argparse.Namespace) -> str:
    config = harness.load_config(args.config)
    report = harness.run_experiment(
        config,
        workers=_integer(args.threads, "--threads"),
        out_dir=args.out,
        dump_paths=_integer(args.dump_paths, "--dump-paths"),
    )
    return harness.report_csv(report) + (
        f"# rounds={report.rounds} mean_error={report.mean_error:.6g} "
        f"wall_clock={report.wall_clock:.2f}s\n"
    )


def _cmd_curve(args: argparse.Namespace) -> str:
    config = harness.load_config(args.config)
    checkpoints = _values(args.checkpoints, "--checkpoints", int)
    workers = _integer(args.threads, "--threads")
    rows = harness.convergence_curve(config, checkpoints, workers=workers)
    text = "rounds,mean_error,se\n" + "".join(
        f"{t},{mu:.12g},{se:.12g}\n" for t, mu, se in rows
    )
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "curve.csv").write_text(text)
    return text


def _cmd_critvals(args: argparse.Namespace) -> str:
    betas = _values(args.betas, "--betas")
    levels = _values(args.levels, "--levels")
    table = critvals.simulate_table(
        betas,
        levels,
        steps=_integer(args.steps, "--steps"),
        replications=_integer(args.reps, "--reps"),
        seed=_integer(args.seed, "--seed"),
    )
    if args.out is not None:
        with open(args.out, "w") as stream:
            critvals.save_csv(table, stream)
        return ""
    stream = io.StringIO()
    critvals.save_csv(table, stream)
    return stream.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # A handler returns its stdout text, written only once it has succeeded,
    # so that a broken pipe is told apart from an error of its files.
    handlers = {"run": _cmd_run, "curve": _cmd_curve, "critvals": _cmd_critvals}
    try:
        text = handlers[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message; print the message.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"fedstat: error: {message}", file=sys.stderr)
        return 1
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone, as when `head` has read its lines.
        # That is no error of the input: exit as a process killed by SIGPIPE
        # would, and let the interpreter's final flush write to /dev/null.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())

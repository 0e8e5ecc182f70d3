"""Command-line interface for experiment runs and sweeps.

Subcommands: ``estimate``, ``sweep-tau``, ``sweep-n``, ``sweep-lag``,
``compare-fd``, ``oracle``.  All take ``--config`` and ``--out``; ``--seed``
overrides the config's base seed, ``--threads`` sizes the thread pool that
IS and quadrature runs share (filter and FD runs hold the GIL, so they stay
in the calling thread), and ``--timings`` opts into writing wall-clock times
(which breaks byte-level reproducibility of the output and is therefore off
by default).

Exit codes: 0 success, 2 config error, 3 all runs failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .harness import (
    ConfigError,
    _read_axes,
    compare_fd,
    fit_rate_slope,
    load_config,
    run_experiment,
    write_compare_csv,
    write_records_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ALL_FAILED = 3


def _threads(text: str) -> int:
    threads = int(text)
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {threads}")
    return threads


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfscore",
        description="Derivative-free score / observed-information experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("estimate", "single grid point, R replications"),
        ("sweep-tau", "sweep the shrinkage scale grid"),
        ("sweep-n", "sweep the sample/particle count grid"),
        ("sweep-lag", "sweep the fixed-lag grid"),
        ("compare-fd", "finite differences vs proposed at matched budget"),
        ("oracle", "emit oracle score and information for the model"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the INI config")
        cmd.add_argument("--out", required=True, help="output CSV path")
        cmd.add_argument("--seed", type=int, default=None, help="override base seed")
        cmd.add_argument(
            "--threads", type=_threads, default=1,
            help="thread pool size for IS and quadrature runs; filter and FD runs "
            "hold the GIL, so they always run on one thread",
        )
        cmd.add_argument(
            "--timings",
            action="store_true",
            help="write wall_time_ms values (output is then not reproducible)",
        )
    return parser


_SWEEP_AXIS = {"sweep-tau": "tau", "sweep-n": "n", "sweep-lag": "delta"}


def _check_grids(config, command) -> None:
    """``estimate`` takes one point on each grid axis the method reads, a
    sweep at least two on its axis, which the method must read; under a
    tau_rule the tau axis is the n axis.  ``compare-fd`` needs two
    replications for its variances."""
    if command == "compare-fd" and config.replications < 2:
        raise ConfigError("compare-fd needs two or more replications", key="run.replications")
    axis = _SWEEP_AXIS.get(command)
    if axis == "tau" and config.tau_rule:
        axis = "n"
    read = _read_axes(config)
    if axis and axis not in read:
        raise ConfigError(f"method {config.method} does not read {axis}", key="grid." + axis)
    grids = {"tau": config.taus, "n": config.ns, "delta": config.deltas, "h": config.hs}
    for name, grid in grids.items():
        if command == "estimate" and name in read and len(grid) != 1:
            raise ConfigError("estimate needs one point per grid", key="grid." + name)
        if name == axis and len(grid) < 2:
            raise ConfigError(f"{command} needs two or more points", key="grid." + name)


def _check_out(path) -> None:
    """``--out`` names a file that can be written; checked before any run,
    without creating it."""
    folder = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else folder
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise ConfigError(f"cannot write {path}", key="--out")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, compare=args.command == "compare-fd")
        if args.seed is not None:
            config = replace(config, base_seed=args.seed)
        if args.command == "oracle":
            config = replace(config, method="oracle", replications=1)
        _check_grids(config, args.command)
        _check_out(args.out)
        if args.command == "compare-fd":
            records, table = compare_fd(config, threads=args.threads)
            write_compare_csv(table, args.out)
            rows = len(table)
        else:
            records = run_experiment(config, threads=args.threads)
            write_records_csv(records, args.out, timings=args.timings)
            rows = len(records)
    except ConfigError as exc:
        key = f" (key: {exc.key})" if exc.key else ""
        print(f"config error: {exc}{key}", file=sys.stderr)
        return EXIT_CONFIG

    produced = [r for r in records if r.error == ""]
    failed = [r for r in records if r.error != ""]
    print(f"wrote {args.out}: {rows} rows ({len(failed)} failed)")
    if args.command in ("sweep-tau", "sweep-n") and produced:
        x_field = "tau" if args.command == "sweep-tau" else "n_particles"
        try:
            fit = fit_rate_slope(produced, x_field, "mse")
            print(
                f"log-log MSE slope vs {x_field}: "
                f"{fit.slope:.4f} +/- {fit.stderr:.4f} ({fit.n_points} points)"
            )
        except ValueError:
            pass
    if produced:
        return EXIT_OK
    return EXIT_ALL_FAILED


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: benchmark grids and marking of indicator files.

Exit codes: 0 on success, 2 on parse or parameter errors, 3 on resource
exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .bench import (
    DEFAULT_ALGORITHMS,
    DEFAULT_N_GRID,
    DEFAULT_RUNS,
    DEFAULT_THETA_GRID,
    DESK_SCALE_CAP,
    BenchConfig,
    emit_table,
    run_bench,
)
from .core import MarkingError, goal_value
from .io import read_indicators, write_marked_indices
from .markers import ALGORITHM_NAMES, mark

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmark",
        description="Bulk-chasing marking strategies: benchmark harness and file marker.",
    )
    parser.add_argument("--version", action="version", version=f"dmark {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser(
        "bench",
        help="time marking strategies on seeded uniform random instances",
    )
    bench.add_argument(
        "--algorithm",
        action="append",
        choices=ALGORITHM_NAMES,
        help=f"strategy to include, repeatable (default: {' '.join(DEFAULT_ALGORITHMS)})",
    )
    bench.add_argument(
        "--theta",
        action="append",
        type=float,
        help=f"adaptivity parameter, repeatable (default grid: {DEFAULT_THETA_GRID})",
    )
    bench.add_argument(
        "--n",
        action="append",
        type=int,
        help="instance size, repeatable (default grid: 10^3 .. 10^7)",
    )
    bench.add_argument("--runs", type=int, default=DEFAULT_RUNS, help="runs per cell")
    bench.add_argument("--seed", type=int, default=0, help="base seed (PCG64 streams)")
    bench.add_argument("--nu", type=float, default=0.5, help="nu for decrement/binning")
    bench.add_argument(
        "--instrument",
        action="store_true",
        help="also count the element operations of the timed kernels in separate "
        "untimed runs (sort counts the comparisons of a counted twin)",
    )
    bench.add_argument("--format", choices=("csv", "table"), default="csv")
    bench.add_argument(
        "--per-element",
        action="store_true",
        help="emit time per element in nanoseconds instead of seconds/comparisons",
    )
    bench.add_argument(
        "--max-n",
        type=int,
        default=DESK_SCALE_CAP,
        help=f"lift the instance size cap (default {DESK_SCALE_CAP})",
    )
    bench.add_argument("--output", type=Path, default=None, help="write to file instead of stdout")

    mark_cmd = sub.add_parser("mark", help="mark an indicator file")
    mark_cmd.add_argument("--input", type=Path, required=True, help=".txt or .f64 indicator file")
    mark_cmd.add_argument("--output", type=Path, required=True, help="file for the marked indices (0-based, one per line)")
    mark_cmd.add_argument("--algorithm", choices=ALGORITHM_NAMES, default="quickmark")
    mark_cmd.add_argument("--theta", type=float, required=True, help="adaptivity parameter in (0, 1]")
    mark_cmd.add_argument("--nu", type=float, default=0.5, help="nu for decrement/binning")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls, and
    # building the tree costs more than marking a small file
    return build_parser()


def _cmd_bench(args: argparse.Namespace) -> int:
    config = BenchConfig(
        theta_grid=tuple(args.theta) if args.theta else DEFAULT_THETA_GRID,
        n_grid=tuple(args.n) if args.n else DEFAULT_N_GRID,
        runs=args.runs,
        seed=args.seed,
        algorithms=tuple(args.algorithm) if args.algorithm else DEFAULT_ALGORITHMS,
        nu=args.nu,
        instrument=args.instrument,
        max_n=args.max_n,
    )
    text = emit_table(run_bench(config), fmt=args.format, per_element=args.per_element)
    if args.output is None:
        sys.stdout.write(text)
    else:
        args.output.write_text(text, encoding="utf-8")
    return EXIT_OK


def _cmd_mark(args: argparse.Namespace) -> int:
    iv = read_indicators(args.input)
    run = mark(iv, args.theta, args.algorithm, nu=args.nu)
    write_marked_indices(args.output, run.outcome.marked)
    print(f"algorithm={run.algorithm}")
    print(f"n={iv.n}")
    print(f"theta={args.theta}")
    print(f"goal_value={goal_value(iv, args.theta)!r}")
    print(f"cardinality={run.outcome.cardinality}")
    print(f"achieved_sum={run.outcome.achieved_sum!r}")
    if run.threshold is not None:
        print(f"x_star={run.threshold!r}")
    print(f"output={args.output}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_mark(args)
    except MarkingError as exc:
        print(f"dmark: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("dmark: error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Command-line interface: marking of indicator files.

Exit codes: 0 on success, 2 on parse or parameter errors (an unreadable
input or unwritable output file among them), 3 on resource exhaustion (out
of memory, or an output write that runs out of space or fails in the device,
whose partial file is removed).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .core import MarkingError, goal_value
from .io import read_indicators, write_marked_indices
from .markers import ALGORITHM_NAMES, mark

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# write errors that mean a full disk or quota, or a failing device; any other
# OSError of --output is a bad path
_RESOURCE_ERRNOS = frozenset(
    getattr(errno, name) for name in ("ENOSPC", "EDQUOT", "EFBIG", "EIO") if hasattr(errno, name)
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmark",
        description="Bulk-chasing marking strategies: file marker.",
    )
    parser.add_argument("--version", action="version", version=f"dmark {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

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


def _cmd_mark(args: argparse.Namespace) -> int:
    iv = read_indicators(args.input)
    run = mark(iv, args.theta, args.algorithm, nu=args.nu)
    try:
        write_marked_indices(args.output, run.outcome.marked)
    except OSError as exc:
        print(f"dmark: error: {args.output}: {exc}", file=sys.stderr)
        if exc.errno not in _RESOURCE_ERRNOS:
            # a missing directory or a directory as --output, as an unreadable --input
            return EXIT_USAGE
        # leave no partial index file behind; a device such as /dev/full stays
        if args.output.is_file():
            with contextlib.suppress(OSError):
                args.output.unlink()
        return EXIT_RESOURCE
    print(f"algorithm={run.algorithm}")
    print(f"n={iv.n}")
    print(f"theta={args.theta}")
    print(f"goal_value={goal_value(iv, args.theta)!r}")
    print(f"cardinality={run.outcome.cardinality}")
    print(f"achieved_sum={run.outcome.achieved_sum!r}")
    if run.outcome.threshold is not None:
        print(f"x_star={run.outcome.threshold!r}")
    print(f"output={args.output}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _cmd_mark(args)
    except MarkingError as exc:
        print(f"dmark: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("dmark: error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())

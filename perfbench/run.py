"""End-to-end benchmark of Dörfler marking: ``mark()`` and ``dmark mark``.

Run from the repository root::

    python3 perfbench/run.py --workload uniform-1e6 --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory.  The second to
last line of standard output is a JSON object with the environment, the
workload parameters, sample counts and the failures seen; the last line is
the result: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Inputs, spans and scratch files go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    target = harness.load_target(root)
    meta, result = harness.run(
        target,
        workloads.WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        root,
        root / ".perfbench",
    )
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare perfbench runs of a parent and a change against the bounds in BENCHMARK.json.

Each run is the standard output of ``perfbench/run.py`` (its meta line and
its result line).  Runs of one workload pair up by seed.  Usage, from the
repository root::

    python3 tools/bench_compare.py --parent p-*.out --change c-*.out --save BENCH_N.json
    python3 tools/bench_compare.py --bench BENCH_N.json

``--save`` writes the runs read to one JSON file, one run per line, and
``--bench`` reads such a file back.  For every end-to-end metric in ``BENCHMARK.json`` and every
workload, one row gives each side's median and quartiles, the ratio of the
medians (change / parent), the bound, the pairs the change won, and a
verdict:

* ``worse``: the median got worse by more than the bound;
* ``unresolved``: the parent's own quartiles lie further apart than the
  bound, and not every change run beats every parent run;
* ``gain``: the change won at least nine tenths of the pairs, and the
  medians differ by more than the parent's interquartile range;
* ``within``: none of these.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_run(path: Path) -> dict:
    """The meta and result objects of one perfbench output."""
    run = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("{"):
            obj = json.loads(line)
            if "meta" in obj:
                run["meta"] = obj["meta"]
            elif "metrics" in obj:
                run["result"] = obj
    if set(run) != {"meta", "result"}:
        raise SystemExit(f"{path}: not a perfbench output (meta and result lines)")
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(runs: dict[str, list[dict]], spec: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) that both sides report."""
    by_workload: dict[str, dict[str, dict[int, dict]]] = {}
    for side, side_runs in runs.items():
        for run in side_runs:
            meta = run["meta"]
            by_workload.setdefault(meta["workload"], {}).setdefault(side, {})[meta["seed"]] = run
    rows = []
    for workload, sides in sorted(by_workload.items()):
        parent, change = sides.get("parent", {}), sides.get("change", {})
        seeds = sorted(set(parent) & set(change))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            pv, cv = _values(parent, name), _values(change, name)
            if not pv or not cv:
                continue
            p, c = list(pv.values()), list(cv.values())
            pq, cq = quartiles(p), quartiles(c)
            paired = [s for s in seeds if s in pv and s in cv]
            wins = sum(sign * (cv[s] - pv[s]) < 0 for s in paired)
            ratio = cq[1] / pq[1] if pq[1] else float("nan")
            worse = sign * (ratio - 1.0) > bound
            spread = (pq[2] - pq[0]) / abs(pq[1]) if pq[1] else 0.0
            dominates = max(sign * v for v in c) < min(sign * v for v in p)
            if worse:
                verdict = "worse"
            elif spread > bound and not dominates:
                verdict = "unresolved"
            elif paired and wins >= 0.9 * len(paired) and sign * (pq[1] - cq[1]) > pq[2] - pq[0]:
                verdict = "gain"
            else:
                verdict = "within"
            rows.append({
                "workload": workload, "metric": name,
                "parent": pq, "change": cq, "ratio": ratio, "bound": bound,
                "wins": wins, "pairs": len(paired), "verdict": verdict,
            })
    return rows


def _values(runs: dict[int, dict], name: str) -> dict[int, float]:
    return {
        seed: run["result"]["metrics"][name]["value"]
        for seed, run in runs.items()
        if name in run["result"]["metrics"]
    }


def failure_rates(runs: dict[str, list[dict]]) -> dict[tuple[str, str], float]:
    """Share of attempted operations that failed, per (workload, side)."""
    totals: dict[tuple[str, str], list[int]] = {}
    for side, side_runs in runs.items():
        for run in side_runs:
            t = totals.setdefault((run["meta"]["workload"], side), [0, 0])
            t[0] += run["result"]["failed"]
            t[1] += run["result"]["attempted"]
    return {k: (f / a if a else 0.0) for k, (f, a) in totals.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="*", default=[], type=Path, help="parent runs")
    parser.add_argument("--change", nargs="*", default=[], type=Path, help="change runs")
    parser.add_argument("--bench", type=Path, help="runs saved by --save")
    parser.add_argument("--save", type=Path, help="write the runs read to this file")
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    if args.bench:
        runs = {"parent": [], "change": []}
        for run in json.loads(args.bench.read_text(encoding="utf-8"))["runs"]:
            runs[run["side"]].append(run)
    else:
        runs = {"parent": [read_run(p) for p in args.parent],
                "change": [read_run(p) for p in args.change]}
    if not runs["parent"] or not runs["change"]:
        parser.error("need runs of both the parent and the change")
    if args.save:
        # one run per line
        lines = [json.dumps({"side": side, **run}) for side in runs for run in runs[side]]
        args.save.write_text('{"runs": [\n' + ",\n".join(lines) + "\n]}\n", encoding="utf-8")

    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    table = [("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
              "ratio", "bound", "wins", "verdict")]
    for row in compare(runs, spec):
        p, c = row["parent"], row["change"]
        table.append((
            row["workload"], row["metric"],
            f"{p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}]", f"{c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}]",
            f"{row['ratio']:.3f}", f"{row['bound']:.2f}", f"{row['wins']}/{row['pairs']}",
            row["verdict"],
        ))
    widths = [max(len(line[i]) for line in table) for i in range(len(table[0]))]
    for line in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    for (workload, side), rate in sorted(failure_rates(runs).items()):
        print(f"failed share {workload} {side}: {rate:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

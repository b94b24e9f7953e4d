"""The perfbench comparator: pairing by seed, ratios and verdicts."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)

SPEC = {
    "end_to_end": [
        {"name": "mark.binning.ns_per_elem", "unit": "ns/elem", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}


def run(workload, seed, binning, setup=1.0, failed=0):
    metrics = {"mark.binning.ns_per_elem": {"value": binning, "unit": "ns/elem"}}
    if setup is not None:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    return {
        "meta": {"workload": workload, "seed": seed},
        "result": {"correct": True, "attempted": 10, "failed": failed, "metrics": metrics},
    }


def rows_by_metric(runs):
    return {(r["workload"], r["metric"]): r for r in bench_compare.compare(runs, SPEC)}


def test_verdicts():
    runs = {
        "parent": [run("w", s, 20.0 + 0.1 * s, setup=1.0 + 0.01 * s) for s in range(10)],
        "change": [run("w", s, 15.0 + 0.1 * s, setup=1.3 + 0.01 * s) for s in range(10)],
    }
    rows = rows_by_metric(runs)
    gain = rows["w", "mark.binning.ns_per_elem"]
    assert gain["verdict"] == "gain" and gain["wins"] == 10 and gain["pairs"] == 10
    assert gain["ratio"] == pytest.approx(15.45 / 20.45)
    assert rows["w", "setup_s"]["verdict"] == "worse"


def test_wide_parent_spread_is_unresolved():
    parent = [10.0, 30.0, 10.0, 30.0]
    change = [11.0, 29.0, 12.0, 28.0]
    runs = {
        "parent": [run("w", s, v) for s, v in enumerate(parent)],
        "change": [run("w", s, v) for s, v in enumerate(change)],
    }
    assert rows_by_metric(runs)["w", "mark.binning.ns_per_elem"]["verdict"] == "unresolved"


def test_missing_metric_and_unpaired_seeds():
    runs = {
        "parent": [run("w", 1, 10.0, setup=None), run("w", 2, 10.0, setup=None)],
        "change": [run("w", 2, 10.5), run("w", 3, 10.4, failed=1)],
    }
    rows = rows_by_metric(runs)
    assert ("w", "setup_s") not in rows
    row = rows["w", "mark.binning.ns_per_elem"]
    assert row["pairs"] == 1 and row["wins"] == 0 and row["verdict"] == "within"
    assert bench_compare.failure_rates(runs) == {("w", "parent"): 0.0, ("w", "change"): 0.05}


def test_reads_output_and_saves_runs(tmp_path, capsys):
    paths = {}
    for side, value in (("parent", 20.0), ("change", 15.0)):
        r = run("w", 7, value)
        paths[side] = tmp_path / f"{side}.out"
        paths[side].write_text(
            json.dumps({"meta": r["meta"]}) + "\n" + json.dumps(r["result"]) + "\n"
        )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    saved = tmp_path / "bench.json"
    argv = ["--parent", str(paths["parent"]), "--change", str(paths["change"])]
    assert bench_compare.main(argv + ["--spec", str(spec_path), "--save", str(saved)]) == 0
    first = capsys.readouterr().out
    assert bench_compare.main(["--bench", str(saved), "--spec", str(spec_path)]) == 0
    assert capsys.readouterr().out == first
    assert "mark.binning.ns_per_elem" in first and "0.750" in first

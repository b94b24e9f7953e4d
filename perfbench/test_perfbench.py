"""Tests of the benchmark itself: seeded generators, exact oracle, metric names.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import harness
import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def target():
    return harness.load_target(ROOT)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.generate(workload, 11)
    again = workloads.generate(workload, 11)
    other = workloads.generate(workload, 12)
    assert len(first) == len(again)
    for (x, theta), (y, phi) in zip(first, again):
        assert np.array_equal(x, y) and theta == phi
        assert x.ndim == 1 and np.all(x >= 0.0) and np.any(x > 0.0)
        assert 0.0 < theta < 1.0
    assert not np.array_equal(first[0][0], other[0][0])


def test_boundary_instances_match_their_description():
    cases = workloads.generate(workloads.WORKLOADS["boundary-small"], 3)
    assert len(cases) == 600
    for x, theta in cases[:50]:
        assert 8 <= x.size <= 1000
        for v in x[:5].tolist():
            assert float(f"{v:.1e}") == v


def test_boundary_files_cover_the_size_range(tmp_path):
    instances = workloads.setup(workloads.WORKLOADS["boundary-small"], 3, tmp_path)
    with_files = sorted(inst.n for inst in instances if inst.f64 is not None)
    assert len(with_files) == 60 and len(list(tmp_path.iterdir())) == 120
    assert with_files[0] == min(inst.n for inst in instances)
    assert with_files[-1] >= sorted(inst.n for inst in instances)[-10]
    assert all(inst.f64.is_file() and inst.txt.is_file() for inst in instances if inst.f64)


def test_exact_sum_is_exact():
    rng = np.random.default_rng(5)
    x = np.concatenate(
        (10.0 ** rng.uniform(-300, 300, 500), [0.0, 5e-324, 2.5e-310, 1e308, 1e308])
    )
    assert oracle.exact_sum(x) == sum(Fraction(v) for v in x.tolist())
    assert oracle.exact_sum(np.array([])) == 0


@pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
def test_oracle_agrees_with_sort_mark_away_from_boundaries(target, theta):
    from dmark import sort_mark

    rng = np.random.default_rng(21)
    for n in (1, 2, 17, 1000, 20000):
        x = rng.random(n) + 0.01
        solution = oracle.solve(x, theta)
        assert solution.nmin == sort_mark(x, theta).cardinality
        assert oracle.check_marked(x, solution, solution.minimal) is None


def test_oracle_matches_rational_arithmetic_on_boundary_instances():
    # theta sits on a float prefix-mass ratio, where float sums decide wrongly
    for x, theta in workloads.generate(workloads.WORKLOADS["boundary-small"], 4)[:60]:
        values = sorted((Fraction(v) for v in x.tolist()), reverse=True)
        goal = Fraction(theta) * sum(values)
        prefix, expected = Fraction(0), len(values)
        for k, v in enumerate(values, start=1):
            prefix += v
            if prefix >= goal:
                expected = k
                break
        solution = oracle.solve(x, theta)
        assert (solution.nmin, solution.goal) == (expected, goal)


def test_check_marked_rejects_bad_sets():
    x = np.array([4.0, 3.0, 2.0, 1.0])
    solution = oracle.solve(x, 0.6)
    assert solution.nmin == 2
    assert oracle.check_marked(x, solution, [0, 1]) is None
    assert "range" in oracle.check_marked(x, solution, [0, 4])
    assert "distinct" in oracle.check_marked(x, solution, [0, 0, 1])
    assert "criterion" in oracle.check_marked(x, solution, [2, 3])
    assert "empty" in oracle.check_marked(x, solution, [])


def test_load_target_refuses_a_tree_without_the_package(tmp_path):
    with pytest.raises(SystemExit):
        harness.load_target(tmp_path)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == harness.END_TO_END_UNITS
    assert _declared("per_layer") == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("traced", [False, True])
def test_every_emitted_metric_is_declared(target, tmp_path, traced):
    tiny = workloads.Workload("tiny", {}, workloads.uniform(3000, 0.5))
    meta, result = harness.run(target, tiny, 1, 0.05, traced, ROOT, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 7
    declared = _declared("per_layer" if traced else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert meta["absent"] == []
    assert list(tmp_path.iterdir()) == ([tmp_path / "trace-tiny.json"] if traced else [])

"""Benchmark harness: determinism, aggregation, table output."""

import numpy as np
import pytest

from dmark import ParameterError, quickmark
from dmark.bench import (
    BenchConfig,
    aggregate,
    emit_table,
    instance_vector,
    run_bench,
)


def small_config(**kw):
    defaults = dict(
        theta_grid=(0.5,),
        n_grid=(1000,),
        runs=3,
        seed=42,
        algorithms=("sort", "quickmark"),
    )
    defaults.update(kw)
    return BenchConfig(**defaults)


class TestConfig:
    def test_record_count_arithmetic(self):
        # 2 algorithms x 5 thetas x 3 runs on one size = 30 records
        config = small_config(
            theta_grid=(0.1, 0.25, 0.5, 0.75, 0.9), n_grid=(1000,), runs=3
        )
        assert len(run_bench(config)) == 30

    @pytest.mark.parametrize(
        "kw",
        [
            dict(theta_grid=()),
            dict(n_grid=()),
            dict(runs=0),
            dict(theta_grid=(1.0,)),
            dict(n_grid=(0,)),
            dict(algorithms=("nope",)),
            dict(algorithms=()),
            dict(n_grid=(10**8,)),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ParameterError):
            small_config(**kw)

    def test_max_n_lifts_cap(self):
        config = small_config(n_grid=(2 * 10**7,), max_n=2 * 10**7, runs=1)
        assert config.n_grid == (2 * 10**7,)


class TestDeterminism:
    def test_instance_vectors_identical(self):
        a = instance_vector(7, 0, 500, 3)
        b = instance_vector(7, 0, 500, 3)
        assert a.tobytes() == b.tobytes()
        assert instance_vector(8, 0, 500, 3).tobytes() != a.tobytes()

    def test_same_seed_same_counts_and_sets(self):
        config = small_config(instrument=True)
        first = run_bench(config)
        second = run_bench(config)
        assert [r.comparisons for r in first] == [r.comparisons for r in second]
        # marked sets are a function of the instance stream alone
        vec = instance_vector(42, 0, 1000, 1)
        assert np.array_equal(
            quickmark(vec, 0.5).marked,
            quickmark(instance_vector(42, 0, 1000, 1), 0.5).marked,
        )

    def test_uninstrumented_runs_report_zero_comparisons(self):
        for rec in run_bench(small_config()):
            assert rec.comparisons == 0

    def test_instrumented_counts_positive(self):
        for rec in run_bench(small_config(instrument=True)):
            assert rec.comparisons > 0
            assert rec.seconds >= 0
            assert rec.seed == 42


class TestAggregation:
    def test_three_rows_per_cell(self):
        records = run_bench(small_config(algorithms=("quickmark",)))
        rows = aggregate(records)
        assert len(rows) == 3
        assert [r[3] for r in rows] == ["min", "avg", "max"]

    def test_six_rows_for_two_algorithms(self):
        rows = aggregate(run_bench(small_config()))
        assert len(rows) == 6

    def test_min_avg_max_ordering(self):
        rows = aggregate(run_bench(small_config(runs=5)))
        by_cell = {}
        for alg, n, theta, stat, seconds, comps in rows:
            by_cell.setdefault((alg, n, theta), {})[stat] = seconds
        for stats in by_cell.values():
            assert stats["min"] <= stats["avg"] <= stats["max"]

    def test_empty_records_rejected(self):
        with pytest.raises(ParameterError):
            aggregate([])


class TestEmitTable:
    def test_csv_schema(self):
        text = emit_table(run_bench(small_config()), fmt="csv")
        lines = text.splitlines()
        assert lines[0] == "algorithm,N,theta,stat,seconds,comparisons"
        assert len(lines) == 1 + 6
        assert "\r" not in text
        row = lines[1].split(",")
        assert row[0] == "quickmark" and row[1] == "1000" and row[2] == "0.5"

    def test_per_element_view(self):
        records = run_bench(small_config(algorithms=("quickmark",)))
        text = emit_table(records, fmt="csv", per_element=True)
        lines = text.splitlines()
        assert lines[0] == "algorithm,N,theta,stat,ns_per_element"
        ns = float(lines[1].split(",")[4])
        assert ns > 0

    def test_table_format(self):
        text = emit_table(run_bench(small_config()), fmt="table")
        assert text.startswith("algorithm")
        assert "quickmark" in text

    def test_unknown_format(self):
        with pytest.raises(ParameterError):
            emit_table(run_bench(small_config()), fmt="json")


class TestCostShapes:
    def test_theta_independence_of_quickmark_counts(self):
        # counts at fixed N vary by at most 25% across the theta grid
        config = BenchConfig(
            theta_grid=(0.1, 0.25, 0.5, 0.75, 0.9),
            n_grid=(10**4,),
            runs=2,
            seed=3,
            algorithms=("quickmark",),
            instrument=True,
        )
        by_theta = {}
        for rec in run_bench(config):
            by_theta.setdefault(rec.theta, []).append(rec.comparisons)
        means = [float(np.mean(v)) for v in by_theta.values()]
        assert max(means) / min(means) - 1.0 <= 0.25

    def test_sort_counts_per_element_increase(self):
        config = BenchConfig(
            theta_grid=(0.5,),
            n_grid=(10**3, 10**4),
            runs=1,
            seed=5,
            algorithms=("sort",),
            instrument=True,
        )
        per_el = {rec.n: rec.comparisons / rec.n for rec in run_bench(config)}
        assert per_el[10**3] < per_el[10**4]

    def test_all_algorithms_run(self):
        config = BenchConfig(
            theta_grid=(0.5,),
            n_grid=(500,),
            runs=1,
            seed=1,
            algorithms=("sort", "decrement", "binning", "quickmark", "xstar"),
            instrument=True,
        )
        records = run_bench(config)
        assert sorted({r.algorithm for r in records}) == [
            "binning",
            "decrement",
            "quickmark",
            "sort",
            "xstar",
        ]

"""Selection-based minimal marking: value kernel, pivots, counts, materialise step."""

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instance
from dmark import (
    AdmissibilityError,
    IndicatorVector,
    MarkingOutcome,
    MedianPivot,
    OpCounter,
    ParameterError,
    QuantilePivot,
    RandomPivot,
    goal_value,
    is_valid_minimal_set,
    mark,
    quickmark,
    satisfies_doerfler,
    sort_mark,
    xstar_kernel,
)
from dmark.core import materialise, pairwise_sum
from dmark.quickmark import (
    _MIN_N,
    _candidates,
    _select,
    _verify_candidates,
    _verify_cut,
    _verify_level,
)

dyadic_lists = st.lists(
    st.integers(0, 1024).map(lambda k: k / 256.0), min_size=1, max_size=30
).filter(lambda xs: any(v > 0 for v in xs))
dyadic_thetas = st.integers(1, 63).map(lambda k: k / 64.0)

ALL_PIVOTS = (MedianPivot(), RandomPivot(1), RandomPivot(99), QuantilePivot(0.3))


class TestQuickmarkExamples:
    def test_basic(self):
        r = quickmark([4, 1, 2, 3], 0.5)
        assert r.cardinality == 2
        assert set(r.marked.tolist()) == {0, 3}
        assert r.threshold == 3.0

    def test_all_equal(self):
        r = quickmark([2, 2, 2, 2], 0.5)
        assert r.cardinality == 2
        assert r.threshold == 2.0

    def test_single_positive(self):
        r = quickmark([1.0] + [0.0] * 9, 0.7)
        assert r.cardinality == 1
        assert r.threshold == 1.0

    def test_theta_bounds(self):
        with pytest.raises(ParameterError):
            quickmark([1.0], 1.0)
        with pytest.raises(ParameterError):
            quickmark([1.0], 0.0)

    def test_outcome_conversion(self):
        x = [4, 1, 2, 3]
        out = quickmark(x, 0.5)
        assert isinstance(out, MarkingOutcome)
        assert out.cardinality == 2
        assert out.achieved_sum == 7.0


class TestEquivalenceWithSort:
    def test_seeded_sweep(self, rng):
        # 1000 instances, N in [10, 200], theta in {0.1, ..., 0.9}
        thetas = np.linspace(0.1, 0.9, 9)
        for trial in range(1000):
            n = int(rng.integers(10, 201))
            vals = rng.random(n)
            theta = float(thetas[trial % 9])
            assert quickmark(vals, theta).cardinality == sort_mark(vals, theta).cardinality

    @given(dyadic_lists, dyadic_thetas)
    @settings(max_examples=150, deadline=None)
    def test_dyadic_exact_equivalence(self, xs, theta):
        r = quickmark(xs, theta, check_invariants=True)
        assert r.cardinality == sort_mark(xs, theta).cardinality
        assert satisfies_doerfler(xs, theta, r.marked)

    @given(dyadic_lists, dyadic_thetas)
    @settings(max_examples=100, deadline=None)
    def test_output_is_locally_minimal(self, xs, theta):
        r = quickmark(xs, theta)
        assert is_valid_minimal_set(xs, r.marked, goal_value(xs, theta))


class TestThresholdInvariance:
    def test_across_pivots_and_kernel(self, rng):
        for trial in range(300):
            n = int(rng.integers(1, 250))
            kind = trial % 3
            if kind == 0:
                vals = rng.random(n)
            elif kind == 1:
                vals = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=n)
                if not vals.any():
                    vals[0] = 1.0
            else:
                vals = np.where(rng.random(n) < 0.8, 0.0, rng.random(n))
                if not vals.any():
                    vals[0] = 0.5
            theta = float(rng.uniform(0.05, 0.95))
            iv = IndicatorVector(vals)
            stars = [quickmark(iv, theta, p).threshold for p in ALL_PIVOTS]
            stars.append(xstar_kernel(iv.scratch_copy(), theta))
            assert len(set(stars)) == 1, (trial, stars)

    def test_x_star_is_min_marked_value(self, rng):
        cases = []
        for _ in range(200):
            vals = rng.random(int(rng.integers(1, 150)))
            if not vals.any():
                vals[0] = 1.0
            cases.append((vals, float(rng.uniform(0.05, 0.95))))
        cases += [boundary_instance(rng, int(rng.integers(2, 41))) for _ in range(500)]
        for vals, theta in cases:
            r = quickmark(vals, theta, check_invariants=True)
            assert r.threshold == float(vals[r.marked].min())
            assert r.threshold == xstar_kernel(vals.copy(), theta)

    def test_random_pivot_deterministic_per_seed(self, rng):
        vals = rng.random(200)
        a = quickmark(vals, 0.5, RandomPivot(seed=5))
        b = quickmark(vals, 0.5, RandomPivot(seed=5))
        assert a.cardinality == b.cardinality and a.threshold == b.threshold
        assert np.array_equal(a.marked, b.marked)


class TestInstrumentedPath:
    def test_matches_fast(self, rng):
        for trial in range(200):
            n = int(rng.integers(1, 200))
            vals = rng.random(n) if trial % 2 else rng.choice(
                [0.25, 0.5, 1.0, 2.0], size=n
            )
            theta = float(rng.uniform(0.05, 0.95))
            for piv in ALL_PIVOTS:
                counter = OpCounter()
                counted = quickmark(vals, theta, piv, counter=counter, check_invariants=True)
                fast = quickmark(vals, theta, piv)
                assert counted.cardinality == fast.cardinality
                assert counted.threshold == fast.threshold
                assert counter.comparisons > 0

    def test_quantile_cost_scales_with_min_q(self, rng):
        # counted cost of quantile(q) stays within the median-pivot budget
        # scaled by 1 / min(q, 1 - q)
        n = 3000
        median_max = 0.0
        instances = [rng.random(n) for _ in range(5)]
        for vals in instances:
            counter = OpCounter()
            quickmark(vals, 0.5, MedianPivot(), counter=counter)
            median_max = max(median_max, counter.comparisons / n)
        for q in (0.3, 0.7):
            factor = 1.0 / min(q, 1.0 - q)
            for vals in instances:
                counter = OpCounter()
                quickmark(vals, 0.5, QuantilePivot(q), counter=counter)
                assert counter.comparisons <= median_max * n * factor

    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
    def test_median_counts_between_2n_and_4n(self, n):
        # the halving ranges partition about 2N elements and sum about N
        for seed in range(3):
            counter = OpCounter()
            quickmark(np.random.default_rng(seed).random(n), 0.5, counter=counter)
            assert 2 * n <= counter.comparisons <= 4 * n


class TestXStarKernel:
    def test_example(self):
        assert xstar_kernel(np.array([4.0, 1.0, 2.0, 3.0]), 0.5) == 3.0

    def test_all_equal(self):
        n = 5
        theta = (n - 1) / n
        assert xstar_kernel(np.full(n, 3.0), theta) == 3.0

    def test_reorders_scratch_only(self):
        iv = IndicatorVector([4.0, 1.0, 2.0, 3.0])
        scratch = iv.scratch_copy()
        xstar_kernel(scratch, 0.5)
        assert np.array_equal(iv.values, [4.0, 1.0, 2.0, 3.0])

    def test_matches_quickmark(self, rng):
        for _ in range(500):
            vals = rng.random(int(rng.integers(1, 200)))
            if not vals.any():
                vals[0] = 1.0
            theta = float(rng.uniform(0.05, 0.95))
            assert xstar_kernel(vals.copy(), theta) == quickmark(vals, theta).threshold

    def test_counted_matches_fast(self, rng):
        for _ in range(100):
            vals = rng.random(int(rng.integers(1, 150)))
            if not vals.any():
                vals[0] = 1.0
            counter = OpCounter()
            counted = xstar_kernel(vals.copy(), 0.4, counter)
            assert counted == xstar_kernel(vals.copy(), 0.4)
            if len(vals) >= 2:
                assert counter.comparisons > 0

    def test_validation(self):
        with pytest.raises(ParameterError):
            xstar_kernel(np.array([1.0]), 1.0)
        from dmark import InvalidIndicatorsError

        with pytest.raises(InvalidIndicatorsError):
            xstar_kernel(np.array([-1.0, 2.0]), 0.5)
        with pytest.raises(InvalidIndicatorsError):
            xstar_kernel(np.zeros(4), 0.5)


class TestSetFromThreshold:
    """The xstar set is minimal: its cut is the kernel's, not rebuilt from x_star."""

    def test_cardinality_matches_oracle(self, rng):
        for _ in range(300):
            vals = rng.random(int(rng.integers(1, 200)))
            if not vals.any():
                vals[0] = 1.0
            theta = float(rng.uniform(0.05, 0.95))
            out = mark(vals, theta, "xstar").outcome
            assert out.cardinality == sort_mark(vals, theta).cardinality
            assert satisfies_doerfler(vals, theta, out.marked)


def boundary_instance(rng, n):
    """Tie-heavy values over 6 decades, theta on a prefix-mass ratio or 1 ulp off.

    The goal then sits within rounding of a prefix sum of the descending
    order, where the kernel's float decisions are closest to a tie.
    """
    pool = np.array(
        [float(f"{v:.1e}") for v in (10.0 ** rng.uniform(-6.0, 0.0, max(2, n // 3))).tolist()]
    )
    x = rng.choice(pool, size=n)
    k = int(rng.integers(1, n + 1))
    theta = float(np.sum(np.sort(x)[::-1][:k]) / np.sum(x))
    theta = (theta, math.nextafter(theta, math.inf), math.nextafter(theta, 0.0))[
        int(rng.integers(3))
    ]
    return x, min(theta, math.nextafter(1.0, 0.0))


class TestBoundaryCuts:
    def test_seeded_boundary_sweep(self, rng):
        # cardinality may differ by one between pivot policies at these
        # boundaries (their float sums run in different orders), so equal
        # cardinality is asserted only for the two strategies sharing a rank
        for _ in range(1500):
            x, theta = boundary_instance(rng, int(rng.integers(2, 41)))
            for piv in ALL_PIVOTS:
                run = mark(x, theta, "quickmark", pivot=piv)
                assert satisfies_doerfler(x, theta, run.outcome.marked)
                quickmark(x, theta, piv, check_invariants=True)
            xstar = mark(x, theta, "xstar")
            assert satisfies_doerfler(x, theta, xstar.outcome.marked)
            median = mark(x, theta, "quickmark")
            assert xstar.outcome.cardinality == median.outcome.cardinality
            assert xstar.threshold == median.threshold

    @pytest.mark.parametrize(
        "x,theta,piv",
        [
            # the bottom rank stops although rounding left the residual goal
            # above the mass of the range (IndexError on an empty range before)
            ([0.031, 0.39, 0.31], 0.9999999999999998, MedianPivot()),
            ([0.0087, 3.2e-05, 4.1e-06, 0.36], 0.9999999999999998, QuantilePivot(0.3)),
            ([0.63, 5.2e-06, 5e-05, 0.73], 0.9999999999999999, QuantilePivot(0.7)),
            ([0.018, 0.00041, 0.048], 0.993826230989309, RandomPivot(1)),
            # threshold and cut disagreed when rebuilt by a second float
            # decision (xstar raised a threshold-mismatch error before)
            ([0.004, 0.0024, 0.0068, 0.0062], 0.8762886597938145, MedianPivot()),
        ],
    )
    def test_known_boundary_instances(self, x, theta, piv):
        for run in (mark(x, theta, "quickmark", pivot=piv), mark(x, theta, "xstar")):
            assert satisfies_doerfler(x, theta, run.outcome.marked)
        quickmark(x, theta, piv, check_invariants=True)

    @pytest.mark.parametrize(
        "x,theta,piv,expected",
        [
            ([0.031, 0.39, 0.31], 0.9999999999999998, MedianPivot(), (0.031, 3)),
            ([0.0087, 3.2e-05, 4.1e-06, 0.36], 0.9999999999999998, QuantilePivot(0.3), (4.1e-06, 4)),
        ],
    )
    def test_bottom_rank_stops_the_kernel(self, x, theta, piv, expected):
        a = np.array(x)
        assert _select(a, theta * float(np.sum(x)), piv) == expected
        # the cut is the kernel's non-strict ordering around the threshold
        pv, count = expected
        k = len(x) - count
        assert np.all(a[:k] <= pv) and a[k] == pv and np.all(a[k:] >= pv)


class TestMaterialise:
    def test_lowest_index_ties_fill_the_cut(self):
        values = np.array([1.0, 3.0, 2.0, 2.0, 5.0, 2.0])
        assert materialise(values, 2.0, 4).tolist() == [1, 2, 3, 4]
        assert materialise(values, 2.0, 3).tolist() == [1, 2, 4]
        assert materialise(values, 2.0, 5).tolist() == [1, 2, 3, 4, 5]
        assert materialise(values, 3.0, 2).tolist() == [1, 4]

    def test_result_is_read_only(self):
        marked = materialise(np.array([1.0, 2.0]), 2.0, 1)
        assert marked.dtype == np.int64 and not marked.flags.writeable


class TestCheckInvariants:
    def test_level_check_rejects_broken_states(self):
        tol = 1e-12
        a = np.array([1.0, 2.0, 3.0, 4.0])
        _verify_level(a, 1, 3, 5.0 - 4.0, 5.0, tol)  # admissible
        with pytest.raises(AdmissibilityError, match="prefix"):
            _verify_level(np.array([3.0, 2.0, 1.0, 4.0]), 1, 3, 1.0, 5.0, tol)
        with pytest.raises(AdmissibilityError, match="suffix"):
            _verify_level(np.array([1.0, 4.0, 3.0, 2.0]), 1, 3, 3.0, 5.0, tol)
        with pytest.raises(AdmissibilityError, match="inconsistent"):
            _verify_level(a, 1, 3, 2.0, 5.0, tol)
        with pytest.raises(AdmissibilityError, match="exceeds"):
            _verify_level(a, 1, 3, 6.0, 10.0, tol)
        with pytest.raises(AdmissibilityError, match="positive"):
            _verify_level(a, 1, 3, 0.0, 4.0, tol)

    def test_underflowing_goal_passes_the_checks(self):
        # 0.3 * 5e-324 rounds to a goal of 0, which the one-element set reaches
        for piv in ALL_PIVOTS:
            out = quickmark([5e-324], 0.3, piv, check_invariants=True)
            assert out.marked.tolist() == [0]
            out = quickmark([5e-324, 0.0, 5e-324], 0.1, piv, check_invariants=True)
            assert out.marked.tolist() == [0]

    def test_cut_check_rejects_broken_sets(self):
        tol = 1e-12
        iv = IndicatorVector([4.0, 1.0, 2.0, 3.0])

        def cut(marked, x_star):
            return replace(MarkingOutcome.from_marked(iv, marked), threshold=x_star)

        _verify_cut(iv, cut([0, 3], 3.0), 5.0, tol)  # admissible
        with pytest.raises(AdmissibilityError, match="smallest"):
            _verify_cut(iv, cut([0, 3], 2.0), 5.0, tol)
        for marked, x_star, goal in (
            ([0, 2], 2.0, 5.0),  # unmarked 3.0 exceeds the threshold
            ([0, 3], 3.0, 8.0),  # misses the goal
            ([0, 3, 2], 2.0, 5.0),  # 2.0 is removable
        ):
            with pytest.raises(AdmissibilityError, match="removal-minimal"):
                _verify_cut(iv, cut(marked, x_star), goal, tol)


def full_kernel(iv, theta, pivot=MedianPivot(), counter=None):
    """The kernel on a scratch copy of every entry, then the materialise step."""
    with np.errstate(over="ignore"):
        x_star, count = _select(iv.scratch_copy(), goal_value(iv, theta), pivot, counter=counter)
        marked = materialise(iv.values, x_star, count)
        return marked, x_star, pairwise_sum(iv.values[marked])


def family(rng, n, kind):
    if kind == "lognormal":
        return rng.lognormal(0.0, 2.5, n)
    if kind in ("sorted", "reversed"):
        vals = np.sort(rng.random(n))
        return vals if kind == "sorted" else vals[::-1].copy()
    return instance(rng, n, kind)


def took_candidates(iv, theta):
    return _candidates(iv.values, theta, goal_value(iv, theta)) is not None


class TestCandidatePath:
    """Above ``_MIN_N`` entries the kernel runs on the candidates above a sampled bound."""

    FAMILIES = ("uniform", "ties", "sparse", "integers", "lognormal", "sorted", "reversed")

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_matches_full_kernel(self, rng, kind):
        for n in (2**15, 2**16 + 3, 2**17 + 1, 2**18):
            iv = IndicatorVector(family(rng, n, kind))
            for theta in (0.3, 0.5, 0.7):
                assert took_candidates(iv, theta), (kind, n, theta)
                for piv in (MedianPivot(), RandomPivot(7), QuantilePivot(0.3)):
                    out = quickmark(iv, theta, piv)
                    marked, x_star, achieved = full_kernel(iv, theta, piv)
                    assert np.array_equal(out.marked, marked), (kind, n, theta, piv)
                    assert out.threshold == x_star
                    assert out.achieved_sum.hex() == achieved.hex()
                assert xstar_kernel(iv.scratch_copy(), theta) == out.threshold

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_passes_the_checks(self, rng, kind, monkeypatch):
        checked = []

        def verify(values, lo, idx, goal):
            checked.append(idx.size)
            _verify_candidates(values, lo, idx, goal)

        # the package attribute ``quickmark`` is the function, not the module
        module = importlib.import_module("dmark.quickmark")
        monkeypatch.setattr(module, "_verify_candidates", verify)
        iv = IndicatorVector(family(rng, 2**15, kind))
        for theta in (0.3, 0.7):
            assert took_candidates(iv, theta)
            out = quickmark(iv, theta, check_invariants=True)
            assert np.array_equal(out.marked, full_kernel(iv, theta)[0])
        assert len(checked) == 2

    def test_candidate_check_rejects_broken_sets(self):
        values = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
        _verify_candidates(values, 2.0, np.array([0, 2, 4]), 12.0)  # admissible
        with pytest.raises(AdmissibilityError, match="exceeds the candidate bound"):
            _verify_candidates(values, 2.0, np.array([0, 2]), 9.0)
        with pytest.raises(AdmissibilityError, match="do not carry the goal"):
            _verify_candidates(values, 2.0, np.array([0, 2, 4]), 12.5)

    def test_counts_half_the_full_kernel_on_lognormal(self):
        iv = IndicatorVector(np.random.default_rng(11).lognormal(0.0, 2.5, 2**17))
        full, narrowed = OpCounter(), OpCounter()
        full_kernel(iv, 0.5, counter=full)
        quickmark(iv, 0.5, counter=narrowed)
        assert took_candidates(iv, 0.5)
        assert narrowed.comparisons <= full.comparisons / 2


def fallback_cases():
    n = 2**16
    i = np.arange(n)
    # the sample takes every stride-th entry: here exactly the few large
    # ones, so the bound is too high and the candidates miss the goal
    periodic = np.where(i % -(-n // 4096) == 0, 1.0 + i / n, 0.5)
    # the sample value below the crossing rank is 0
    sparse = (np.random.default_rng(5).random(n) < 0.05).astype(np.float64)
    return [
        ("periodic", periodic, 0.5),
        ("all-equal", np.full(n, 2.0), 0.5),
        ("mostly-zero", sparse, 0.5),
        ("overflowing", 1e308 * (0.5 + i / (2 * n)), 0.5),
        ("subnormal goal", 5e-324 * (1.0 + i % 1000), 0.3),
        ("goal 0", np.where(i == 7, 5e-324, 0.0), 0.3),
    ]


@pytest.mark.parametrize("name,x,theta", fallback_cases())
def test_fallback_runs_the_full_kernel(name, x, theta):
    iv = IndicatorVector(x)
    assert iv.n >= _MIN_N and not took_candidates(iv, theta)
    out = quickmark(iv, theta)
    marked, x_star, achieved = full_kernel(iv, theta)
    assert np.array_equal(out.marked, marked) and out.threshold == x_star
    assert out.achieved_sum == achieved
    assert xstar_kernel(iv.scratch_copy(), theta) == x_star

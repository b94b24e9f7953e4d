"""Selection-based minimal marking: value kernel, counts, materialise step."""

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
    OpCounter,
    ParameterError,
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
    _EXACT_MAX,
    _M0,
    _MIN_N,
    _candidates,
    _select,
    _verify_base,
    _verify_candidates,
    _verify_cut,
    _verify_level,
)

dyadic_lists = st.lists(
    st.integers(0, 1024).map(lambda k: k / 256.0), min_size=1, max_size=30
).filter(lambda xs: any(v > 0 for v in xs))
dyadic_thetas = st.integers(1, 63).map(lambda k: k / 64.0)


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
            assert quickmark(iv, theta).threshold == xstar_kernel(iv.scratch_copy(), theta), trial

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


class TestInstrumentedPath:
    def test_matches_fast(self, rng):
        for trial in range(200):
            n = int(rng.integers(1, 200))
            vals = rng.random(n) if trial % 2 else rng.choice(
                [0.25, 0.5, 1.0, 2.0], size=n
            )
            theta = float(rng.uniform(0.05, 0.95))
            counter = OpCounter()
            counted = quickmark(vals, theta, counter=counter, check_invariants=True)
            fast = quickmark(vals, theta)
            assert counted.cardinality == fast.cardinality
            assert counted.threshold == fast.threshold
            assert counter.comparisons > 0

    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
    def test_median_counts_between_2n_and_4n(self, n):
        # the halving ranges partition about 2N elements and sum about N
        for seed in range(3):
            counter = OpCounter()
            quickmark(np.random.default_rng(seed).random(n), 0.5, counter=counter)
            assert 2 * n <= counter.comparisons <= 4 * n

    def test_theta_independence_of_quickmark_counts(self):
        # mean counts over two seeded instances at N = 10^4 vary by at most
        # 25% across the theta grid
        n = 10**4
        means = []
        for theta_index, theta in enumerate((0.1, 0.25, 0.5, 0.75, 0.9)):
            counts = []
            for run in (1, 2):
                seeds = np.random.SeedSequence(entropy=(3, theta_index, n, run))
                counter = OpCounter()
                quickmark(np.random.default_rng(seeds).random(n), theta, counter=counter)
                counts.append(counter.comparisons)
            means.append(float(np.mean(counts)))
        assert max(means) / min(means) - 1.0 <= 0.25


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

    def test_read_only_input(self):
        # the kernel partitions a copy of a read-only array: on the small
        # path and on the fallback, which ties force from _MIN_N entries on
        small = np.array([1.0, 2.0, 3.0])
        equal = np.full(40_000, 2.0)
        assert not took_candidates(IndicatorVector(equal), 0.5)
        for a in (small, equal):
            a.setflags(write=False)
            assert xstar_kernel(a, 0.5) == quickmark(a, 0.5).threshold


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
        # quickmark and xstar share the kernel, so they agree on the cut
        for _ in range(1500):
            x, theta = boundary_instance(rng, int(rng.integers(2, 41)))
            run = mark(x, theta, "quickmark")
            assert satisfies_doerfler(x, theta, run.outcome.marked)
            quickmark(x, theta, check_invariants=True)
            xstar = mark(x, theta, "xstar")
            assert satisfies_doerfler(x, theta, xstar.outcome.marked)
            assert xstar.outcome.cardinality == run.outcome.cardinality
            assert xstar.outcome.threshold == run.outcome.threshold

    @pytest.mark.parametrize(
        "x,theta",
        [
            # found with the median, quantile 0.3, quantile 0.7 and random
            # ranks, whose bottom rank stopped although rounding left the
            # residual goal above the mass of the range (IndexError on an
            # empty range before)
            ([0.031, 0.39, 0.31], 0.9999999999999998),
            ([0.0087, 3.2e-05, 4.1e-06, 0.36], 0.9999999999999998),
            ([0.63, 5.2e-06, 5e-05, 0.73], 0.9999999999999999),
            ([0.018, 0.00041, 0.048], 0.993826230989309),
            # threshold and cut disagreed when rebuilt by a second float
            # decision (xstar raised a threshold-mismatch error before)
            ([0.004, 0.0024, 0.0068, 0.0062], 0.8762886597938145),
        ],
    )
    def test_known_boundary_instances(self, x, theta):
        for run in (mark(x, theta, "quickmark"), mark(x, theta, "xstar")):
            assert satisfies_doerfler(x, theta, run.outcome.marked)
        quickmark(x, theta, check_invariants=True)

    @pytest.mark.parametrize(
        "x,theta,expected",
        [
            ([0.031, 0.39, 0.31], 0.9999999999999998, (0.031, 3)),
            ([0.0087, 3.2e-05, 4.1e-06, 0.36], 0.9999999999999998, (4.1e-06, 4)),
            # no prefix reaches the goal 0.24200000000000002 exactly (the
            # whole sum is 0.242), so the base case clamps to the range
            ([0.016, 0.13, 0.081, 0.015], 0.9999999999999999, (0.015, 4)),
        ],
    )
    def test_bottom_rank_stops_the_kernel(self, x, theta, expected):
        a = np.array(x)
        assert _select(a, theta * float(np.sum(x))) == expected
        # the cut is the kernel's non-strict ordering around the threshold
        pv, count = expected
        k = len(x) - count
        assert np.all(a[:k] <= pv) and a[k] == pv and np.all(a[k:] >= pv)


def rule_count(x, theta):
    """The smallest k whose k largest entries reach the goal in math.fsum, clamped to N."""
    goal = goal_value(x, theta)
    desc = sorted(x.tolist(), reverse=True)
    return next((k for k in range(1, len(desc) + 1) if math.fsum(desc[:k]) >= goal), len(desc))


class TestBaseCase:
    """A range of at most ``_M0`` entries is sorted and cut by the shared stop rule."""

    def test_small_inputs_take_the_rule(self):
        rng = np.random.default_rng(4242)
        sizes = [int(rng.integers(2, _M0 + 1)) for _ in range(1500)] + [_M0] * 100
        for n in sizes:
            x, theta = boundary_instance(rng, n)
            expected = rule_count(x, theta)
            assert quickmark(x, theta).cardinality == expected, (x.tolist(), theta)
            assert mark(x, theta, "xstar").outcome.cardinality == expected

    def test_one_level_above_m0(self):
        # from _M0 + 1 entries the top level partitions before the base case;
        # the base case's cut, fixed mass included, passes the exact check
        rng = np.random.default_rng(4243)
        for n in [_M0 + 1] * 100 + [int(rng.integers(_M0 + 2, 8 * _M0)) for _ in range(100)]:
            x, theta = boundary_instance(rng, n)
            out = quickmark(x, theta, check_invariants=True)
            assert satisfies_doerfler(x, theta, out.marked)
        counter = OpCounter()
        _select(np.arange(1.0, _M0 + 2), 1.0, counter=counter)
        m = _M0 + 1 - (_M0 // 2 + 1)  # the part above the median rank
        assert counter.comparisons == (_M0 + 1) + m + m * (m - 1).bit_length() + 1

    def test_exact_probes_stay_within_the_suffix_bound(self, monkeypatch):
        # math.fsum sums at most _EXACT_MAX entries per probe at any N; a
        # longer suffix is cut by the float prefix sums, and every cut
        # passes the level checks and the final minimality check
        module = importlib.import_module("dmark.quickmark")
        lengths = []

        def probe(values):
            values = list(values)
            lengths.append(len(values))
            return math.fsum(values)

        monkeypatch.setattr(module, "_fsum", probe)
        rng = np.random.default_rng(4244)
        for n in [_EXACT_MAX - 1] * 10 + [_EXACT_MAX + 1, 5000, 40000] * 4:
            x, theta = boundary_instance(rng, n)
            out = quickmark(x, theta, check_invariants=True)
            assert satisfies_doerfler(x, theta, out.marked)
        assert lengths and max(lengths) <= _EXACT_MAX

    def test_counts_sort_and_cut(self):
        for m in (1, 2, 3, 5, _M0):
            counter = OpCounter()
            x = np.arange(1.0, m + 1)
            count = _select(x.copy(), float(np.sum(x)) / 2, counter=counter)[1]
            assert counter.comparisons == m * math.ceil(math.log2(m)) + count


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
        out = quickmark([5e-324], 0.3, check_invariants=True)
        assert out.marked.tolist() == [0]
        out = quickmark([5e-324, 0.0, 5e-324], 0.1, check_invariants=True)
        assert out.marked.tolist() == [0]

    def test_cut_check_rejects_broken_sets(self):
        iv = IndicatorVector([4.0, 1.0, 2.0, 3.0])

        def cut(marked, x_star):
            return replace(MarkingOutcome.from_marked(iv, marked), threshold=x_star)

        _verify_cut(iv, cut([0, 3], 3.0), 5.0)  # admissible
        with pytest.raises(AdmissibilityError, match="smallest"):
            _verify_cut(iv, cut([0, 3], 2.0), 5.0)
        for marked, x_star, goal in (
            ([0, 2], 2.0, 5.0),  # unmarked 3.0 exceeds the threshold
            ([0, 3], 3.0, 8.0),  # misses the goal
            ([0, 3, 2], 2.0, 5.0),  # 2.0 is removable
        ):
            with pytest.raises(AdmissibilityError, match="removal-minimal"):
                _verify_cut(iv, cut(marked, x_star), goal)
        # the base case's cut on the sorted range [1, 2, 3, 4] at goal 5
        a = np.array([1.0, 2.0, 3.0, 4.0])
        _verify_base(a, 0, 4, 2, 5.0)  # 3 + 4 reach it, 4 alone does not
        with pytest.raises(AdmissibilityError, match="misses the goal"):
            _verify_base(a, 0, 4, 3, 5.0)
        with pytest.raises(AdmissibilityError, match="shorter base cut"):
            _verify_base(a, 0, 4, 1, 5.0)
        with pytest.raises(AdmissibilityError, match="not sorted"):
            _verify_base(np.array([2.0, 1.0, 3.0, 4.0]), 0, 4, 2, 5.0)


def full_kernel(iv, theta, counter=None):
    """The kernel on a scratch copy of every entry, then the materialise step."""
    with np.errstate(over="ignore"):
        x_star, count = _select(iv.scratch_copy(), goal_value(iv, theta), counter=counter)
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
                out = quickmark(iv, theta)
                marked, x_star, achieved = full_kernel(iv, theta)
                assert np.array_equal(out.marked, marked), (kind, n, theta)
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

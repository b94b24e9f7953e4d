"""Selection-based minimal marking: value kernel, counts, materialise step."""

import importlib
import math

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
from dmark.core import EPS, materialise
from dmark.quickmark import (
    _EXACT_MAX,
    _M0,
    _MIN_N,
    _SAMPLE,
    _bracket,
    _candidates,
    _cut,
    _select,
    _verify_band,
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
            assert quickmark(iv, theta).threshold == xstar_kernel(iv.values.copy(), theta), trial

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
        scratch = iv.values.copy()
        xstar_kernel(scratch, 0.5)
        assert np.array_equal(iv.values, [4.0, 1.0, 2.0, 3.0])

    def test_matches_quickmark(self, rng):
        for _ in range(500):
            vals = rng.random(int(rng.integers(1, 200)))
            if not vals.any():
                vals[0] = 1.0
            theta = float(rng.uniform(0.05, 0.95))
            assert xstar_kernel(vals.copy(), theta) == quickmark(vals, theta).threshold

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


class TestXStarSetIsMinimal:
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
    def test_base_case_cuts_a_few_entries(self, x, theta, expected):
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
        # the base case's cut, with the mass above its range, passes the exact check
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
        # passes the level checks and the final minimality check.  The
        # probes are counted in unchecked calls, since the checks sum with
        # the same _fsum
        module = importlib.import_module("dmark.quickmark")
        lengths = []

        def probe(values):
            values = list(values)
            lengths.append(len(values))
            return math.fsum(values)

        rng = np.random.default_rng(4244)
        for n in [_EXACT_MAX - 1] * 10 + [_EXACT_MAX + 1, 5000, 40000] * 4:
            x, theta = boundary_instance(rng, n)
            with monkeypatch.context() as patch:
                patch.setattr(module, "_fsum", probe)
                out = quickmark(x, theta)
            checked = quickmark(x, theta, check_invariants=True)
            assert checked.marked.tolist() == out.marked.tolist()
            assert satisfies_doerfler(x, theta, out.marked)
        assert lengths and max(lengths) <= _EXACT_MAX

    def test_exact_cut_only_with_nothing_above(self):
        # the goal 3 cuts the sorted range at its largest entry; entries
        # above the buffer leave the cut to the residual goal 4.5 instead
        a = np.array([3.0, 1.0, 2.0])
        a.sort()
        assert _cut(a, 0, 3, 3.0, 4.5) == (3.0, 1)
        assert _cut(a, 0, 3, 3.0, 4.5, above=1) == (2.0, 3)

    def test_counts_sort_and_cut(self):
        for m in (1, 2, 3, 5, _M0):
            counter = OpCounter()
            x = np.arange(1.0, m + 1)
            count = _select(x.copy(), float(np.sum(x)) / 2, counter=counter)[1]
            assert counter.comparisons == m * math.ceil(math.log2(m)) + count


def family_instance(rng, n, kind):
    """Values of one family, theta on a float prefix-mass ratio, 1 ulp off it, or random."""
    if kind == "boundary":
        return boundary_instance(rng, n)
    if kind == "uniform":
        x = rng.random(n)
    elif kind == "zeros":
        x = np.where(rng.random(n) < 0.6, 0.0, rng.random(n))
    elif kind == "ties":
        x = rng.choice(rng.random(4), size=n)
    elif kind == "decades":
        x = 10.0 ** rng.uniform(-300.0, 300.0, n)
    elif kind == "digits":
        x = np.round(rng.random(n), 2)
    else:  # "huge": their sum overflows, so the strategies work on them scaled
        x = 1e308 * rng.random(n)
    if not x.any():
        x[0] = 1.0
    choice = int(rng.integers(4))
    if choice == 3:
        return x, float(rng.uniform(0.05, 0.95))
    scaled = x * 2.0**-16  # exact, and keeps the float sums of "huge" finite
    theta = float(np.sum(np.sort(scaled)[::-1][: int(rng.integers(1, n + 1))]) / np.sum(scaled))
    theta = (theta, math.nextafter(theta, math.inf), math.nextafter(theta, 0.0))[choice]
    return x, min(theta, math.nextafter(1.0, 0.0))


class TestUpToExactMax:
    """Up to ``_EXACT_MAX`` entries every cut is the rule's: the kernel returns ``sort``'s set."""

    FAMILIES = ("uniform", "zeros", "ties", "decades", "digits", "huge")

    @pytest.mark.parametrize(
        "kind,seed,cases",
        [("boundary", 4247, 1500)] + [(kind, 4250 + i, 1000) for i, kind in enumerate(FAMILIES)],
    )
    def test_quickmark_and_xstar_return_the_sort_set(self, kind, seed, cases):
        # a level whose mass sits within rounding of the goal hands its range
        # to the sorted cut, so no float decision near the goal can mark one
        # entry more or fewer than sort
        rng = np.random.default_rng(seed)
        for case in range(cases):
            x, theta = family_instance(rng, int(rng.integers(_M0 + 1, _EXACT_MAX + 1)), kind)
            expected = mark(x, theta, "sort").outcome
            runs = (
                quickmark(x, theta),
                quickmark(x, theta, check_invariants=True),
                mark(x, theta, "xstar").outcome,
            )
            for out in runs:
                assert out.marked.tolist() == expected.marked.tolist(), (kind, case)
                assert out.threshold == expected.threshold, (kind, case)

    @pytest.mark.parametrize("checked", [False, True])
    @pytest.mark.parametrize("counted", [False, True])
    def test_level_within_a_rank_of_the_goal_leaves_the_cut_to_the_rule(self, checked, counted):
        # at the top level the 128 entries above the median rank miss the
        # goal by 64.5, less than the rank's value 129: the level narrows to
        # the range below, rank kept, and the base case cuts at the rank
        a = np.random.default_rng(4248).permutation(np.arange(1.0, 2 * _M0 + 2))
        goal = sum(range(_M0 + 2, 2 * _M0 + 2)) + (_M0 + 1) / 2
        tol = 4 * a.size * EPS * float(a.max()) if checked else None
        counter = OpCounter() if counted else None
        assert _select(a, goal, tol, counter) == (_M0 + 1.0, _M0 + 1)
        assert not counted or counter.comparisons > 0


class TestSmallPath:
    """Up to ``_M0`` entries every minimal strategy cuts the sort that validated the vector."""

    def test_returns_the_base_case_on_a_fresh_copy(self):
        rng = np.random.default_rng(4245)
        for n in [n for n in range(2, _M0 + 2) for _ in range(4)]:
            x, theta = boundary_instance(rng, n)
            iv = IndicatorVector(x)
            assert (iv._sorted is not None) == (n <= _M0)
            goal = iv._goal(theta)
            x_star, count = _cut(np.sort(iv._work), 0, n, goal, goal)
            base = MarkingOutcome.trusted(iv, materialise(iv._work, x_star, count), x_star)
            expected = (base.marked.tolist(), base.threshold, base.achieved_sum.hex())
            runs = {"sort": lambda c: sort_mark(x, theta, c)}
            if n <= _M0:
                runs["quickmark"] = lambda c: quickmark(x, theta, counter=c)
                runs["xstar"] = lambda c: mark(x, theta, "xstar", counter=c).outcome
            for name, run in runs.items():
                for counter in (None, OpCounter()):
                    out = run(counter)
                    got = (out.marked.tolist(), out.threshold, out.achieved_sum.hex())
                    assert got == expected, (name, n)
                    if counter is not None and n <= _M0:
                        assert counter.comparisons == n * (n - 1).bit_length() + count
            checked = quickmark(x, theta, check_invariants=True)
            if n <= _M0:
                assert checked.marked.tolist() == expected[0]

    def test_cuts_the_sorted_copy_without_sorting_again(self, monkeypatch):
        # validation sorts once; every cut reads that copy itself, and no
        # strategy starts the kernel or sorts the entries again
        module = importlib.import_module("dmark.quickmark")
        calls, cut_arrays = [], []
        for name in ("_candidates", "_select"):
            monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
        monkeypatch.setattr(
            module, "_cut", lambda a, *rest, **k: cut_arrays.append(a) or _cut(a, *rest, **k)
        )
        x, theta = boundary_instance(np.random.default_rng(4246), _M0)
        iv = IndicatorVector(x)
        ascending = iv._sorted.copy()
        for algorithm in ("quickmark", "xstar", "sort"):
            assert satisfies_doerfler(iv, theta, mark(iv, theta, algorithm).outcome.marked)
        assert quickmark(iv, theta, check_invariants=True).threshold is not None
        assert xstar_kernel(iv, theta) == quickmark(iv, theta).threshold
        assert calls == []
        assert len(cut_arrays) == 6 and all(a is iv._sorted for a in cut_arrays)
        assert not iv._sorted.flags.writeable
        assert np.array_equal(iv._sorted, ascending)

    def test_overflowing_input_scales_the_sorted_copy(self):
        x = np.array([1e308, 1e308, 1e307, 5e-324, 3.0])
        iv = IndicatorVector(x)
        assert iv._scale > 1.0
        assert iv._sorted.tolist() == sorted(iv._work.tolist())
        out = quickmark(x, 0.3)
        assert out.marked.tolist() == [0] and out.threshold == 1e308


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
        # a band below entries of mass 2.0 enters with its own goal, 8 - 2
        _verify_level(a, 1, 3, 2.0, 8.0 - 2.0, tol)
        with pytest.raises(AdmissibilityError, match="inconsistent"):
            _verify_level(a, 1, 3, 2.0, 8.0, tol)

    def test_underflowing_goal_passes_the_checks(self):
        # 0.3 * 5e-324 rounds to a goal of 0, which the one-element set reaches
        out = quickmark([5e-324], 0.3, check_invariants=True)
        assert out.marked.tolist() == [0]
        out = quickmark([5e-324, 0.0, 5e-324], 0.1, check_invariants=True)
        assert out.marked.tolist() == [0]

    def test_cut_check_rejects_broken_sets(self):
        iv = IndicatorVector([4.0, 1.0, 2.0, 3.0])

        def cut(marked, x_star):
            out = MarkingOutcome.from_marked(iv, marked)
            return MarkingOutcome(out.marked, out.achieved_sum, out.cardinality, x_star)

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
    """The kernel on a copy of every working entry, then the materialise step."""
    x_star, count = _select(iv._work.copy(), iv._goal(theta), counter=counter)
    out = MarkingOutcome.trusted(iv, materialise(iv._work, x_star, count), x_star)
    return out.marked, out.threshold, out.achieved_sum


def family(rng, n, kind):
    if kind == "lognormal":
        return rng.lognormal(0.0, 2.5, n)
    if kind in ("sorted", "reversed"):
        vals = np.sort(rng.random(n))
        return vals if kind == "sorted" else vals[::-1].copy()
    if kind == "overflowing":
        return 1e308 * (0.5 + np.arange(n) / (2 * n))
    return instance(rng, n, kind)


def took_candidates(iv, theta):
    return _candidates(iv._work, theta, iv._goal(theta))[0] is not None


class TestCandidatePath:
    """Above ``_MIN_N`` entries the kernel runs on the candidates above a sampled bound."""

    FAMILIES = (
        "uniform", "ties", "sparse", "integers", "lognormal", "sorted", "reversed", "overflowing"
    )

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
                assert xstar_kernel(iv.values.copy(), theta) == out.threshold

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


def took_band(iv, theta):
    return _candidates(iv._work, theta, iv._goal(theta))[4] > 0


def mass_window_case():
    """Entries above the sampled ``hi`` whose exact sum exceeds the goal by a hair.

    Every 16th entry, the strided sample, is uniform and the rest are 0,
    except 256 unsampled entries of one value, chosen so that the entries
    above ``hi`` carry half of the total; ``theta`` is their share less
    ``2**-42`` of it, so every minimal set lies above ``hi``.
    """
    n = 2**16
    stride = -(-n // _SAMPLE)
    x = np.zeros(n)
    x[::stride] = np.random.default_rng(7).random(n // stride)
    hi = _bracket(x, 0.5)[1]
    above = x[x > hi]
    x[1 : 256 * stride : stride] = (0.5 * math.fsum(x) - math.fsum(above)) / 128
    return x, math.fsum(x[x > hi]) * (1.0 - 2.0**-42) / math.fsum(x)


class TestBandPath:
    """The kernel runs on the band ``(lo, hi]`` below the candidates that every minimal set holds."""

    FAMILIES = TestCandidatePath.FAMILIES
    # the thetas at which a family takes the band at every size: below them
    # at most _EXACT_MAX entries of the tie-heavy and sparse families lie
    # above hi, and the lognormal tail puts the sample's crossing rank
    # within the widening of the top
    BAND_THETAS = {
        "uniform": (0.3, 0.5, 0.7),
        "sorted": (0.3, 0.5, 0.7),
        "reversed": (0.3, 0.5, 0.7),
        "overflowing": (0.3, 0.5, 0.7),
        "integers": (0.5, 0.7),
        "ties": (0.7,),
        "sparse": (0.7,),
        "lognormal": (),
    }

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_matches_full_kernel(self, kind):
        # other draws than TestCandidatePath's, which share the fixture's seed
        rng = np.random.default_rng(2121)
        for n in (2**15, 2**16 + 3, 2**17 + 1, 2**18):
            iv = IndicatorVector(family(rng, n, kind))
            for theta in (0.3, 0.5, 0.7):
                if theta in self.BAND_THETAS[kind]:
                    assert took_band(iv, theta), (kind, n, theta)
                out = quickmark(iv, theta)
                marked, x_star, achieved = full_kernel(iv, theta)
                assert np.array_equal(out.marked, marked), (kind, n, theta)
                assert out.threshold == x_star
                assert out.achieved_sum.hex() == achieved.hex()

    @pytest.mark.parametrize("kind", ["uniform", "overflowing", "integers"])
    def test_xstar_kernel_takes_the_same_band(self, rng, kind, monkeypatch):
        module = importlib.import_module("dmark.quickmark")
        starts = []

        def select(a, goal, tol=None, counter=None, above=0):
            starts.append((a.size, float(np.sum(a)), goal, above))
            return _select(a, goal, tol, counter, above)

        monkeypatch.setattr(module, "_select", select)
        iv = IndicatorVector(family(rng, 2**17, kind))
        for theta in (0.5, 0.7):
            assert took_band(iv, theta)
            threshold = quickmark(iv, theta).threshold
            assert xstar_kernel(iv.values.copy(), theta) == threshold
            assert starts[-1] == starts[-2] and starts[-1][3] > 0

    @pytest.mark.parametrize("kind", ["uniform", "sorted", "overflowing", "integers"])
    def test_passes_the_checks(self, rng, kind, monkeypatch):
        checked = []

        def verify(outside, hi, goal):
            checked.append(outside.size)
            _verify_band(outside, hi, goal)

        module = importlib.import_module("dmark.quickmark")
        monkeypatch.setattr(module, "_verify_band", verify)
        iv = IndicatorVector(family(rng, 2**15, kind))
        for theta in (0.5, 0.7):
            assert took_band(iv, theta)
            out = quickmark(iv, theta, check_invariants=True)
            assert np.array_equal(out.marked, full_kernel(iv, theta)[0])
        assert len(checked) == 2 and min(checked) > _EXACT_MAX

    def test_band_check_rejects_broken_sets(self):
        # that the band and the entries above it carry the goal is the
        # candidates' check, test_candidate_check_rejects_broken_sets
        outside = np.array([4.0, 5.0])
        _verify_band(outside, 3.0, 12.0)  # admissible
        with pytest.raises(AdmissibilityError, match="does not exceed"):
            _verify_band(outside, 4.0, 12.0)
        with pytest.raises(AdmissibilityError, match="above the band carry the goal"):
            _verify_band(outside, 3.0, 9.0)

    def test_counts_the_split(self):
        # the filter's N comparisons and m summands, the split's m
        # comparisons and the band's summands, then the kernel on the band
        iv = IndicatorVector(np.random.default_rng(12).random(2**17))
        idx, cand, band, fixed, above = _candidates(iv._work, 0.5, iv._goal(0.5))
        assert above > 0
        kernel, total = OpCounter(), OpCounter()
        _select(band, iv._goal(0.5) - fixed, counter=kernel, above=above)
        quickmark(iv, 0.5, counter=total)
        assert total.comparisons - kernel.comparisons == iv.n + 2 * idx.size + band.size


def declined(iv, theta):
    """The candidate path is taken and the kernel starts on a copy of every candidate."""
    idx, cand, band, fixed, above = _candidates(iv._work, theta, iv._goal(theta))
    assert idx is not None
    assert (fixed, above) == (0.0, 0) and np.array_equal(band, cand)
    assert not np.shares_memory(band, cand)
    out = quickmark(iv, theta, check_invariants=True)
    marked, x_star, achieved = full_kernel(iv, theta)
    assert np.array_equal(out.marked, marked) and out.threshold == x_star
    assert out.achieved_sum.hex() == achieved.hex()
    assert xstar_kernel(iv.values.copy(), theta) == x_star


def test_band_declines_without_a_rank_above():
    # the lognormal tail carries the sample's theta share within the
    # widening of its top, so there is no upper bound
    iv = IndicatorVector(np.random.default_rng(12).lognormal(0.0, 2.5, 2**15))
    assert _bracket(iv._work, 0.3)[1] == math.inf
    declined(iv, 0.3)


@pytest.mark.parametrize(
    "x,theta",
    [
        # hi is the largest value: nothing lies above it
        (np.random.default_rng(13).integers(0, 6, 2**15).astype(np.float64), 0.3),
        # a few hundred sparse entries lie above it
        (np.where(np.random.default_rng(14).random(2**15) < 0.85, 0.0, 1.0)
         * np.random.default_rng(15).random(2**15), 0.3),
    ],
    ids=["none-above", "few-above"],
)
def test_band_declines_with_few_entries_above(x, theta):
    # the base case's exact cut would not see the mass above hi
    iv = IndicatorVector(x)
    hi = _bracket(iv._work, theta)[1]
    assert hi < math.inf and np.count_nonzero(x > hi) <= _EXACT_MAX
    declined(iv, theta)


def test_band_declines_on_mass_within_rounding_of_the_goal():
    x, theta = mass_window_case()
    iv = IndicatorVector(x)
    hi = _bracket(iv._work, theta)[1]
    above = x[x > hi]
    assert above.size > _EXACT_MAX
    goal = iv._goal(theta)
    assert goal < math.fsum(above) <= goal * (1.0 + 1e-12)
    declined(iv, theta)
    # on the band, the kernel could not cut inside the entries above hi
    assert quickmark(iv, theta).cardinality == above.size


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
        # the widened crossing rank passes the end of the sample
        ("theta near 1", np.random.default_rng(6).random(n), 0.999),
        ("subnormal goal", 5e-324 * (1.0 + i % 1000), 0.3),
        ("goal 0", np.where(i == 7, 5e-324, 0.0), 0.3),
    ]


@pytest.mark.parametrize("n", [100, 2**16])
def test_every_entry_start_is_a_copy(n):
    # below _MIN_N, and from it on where the widened rank passes the sample
    x = np.random.default_rng(8).random(n)
    x.setflags(write=False)
    theta = 0.999
    idx, cand, band, fixed, above = _candidates(x, theta, theta * float(np.sum(x)))
    assert idx is None and cand is x and (fixed, above) == (0.0, 0)
    assert band.flags.writeable and not np.shares_memory(band, x)
    assert np.array_equal(band, x)


def kernel_starts():
    rng = np.random.default_rng(20)
    return [
        ("base case", rng.random(_M0), 0.5),
        ("full kernel", rng.random(20_000), 0.5),
        ("candidates", rng.lognormal(0.0, 2.5, 2**15), 0.3),
        ("band", rng.random(2**17), 0.5),
        ("fallback", rng.random(2**16), 0.999),
        ("overflow", 1e304 * (1.0 + rng.random(20_000)), 0.5),
    ]


def kernel_start(iv, theta):
    """The name of the start the kernel takes on ``iv``, as in :func:`kernel_starts`."""
    if iv._sorted is not None:
        return "base case"
    if iv.total() == math.inf:
        return "overflow"
    idx, cand, band, fixed, above = _candidates(iv._work, theta, iv._goal(theta))
    if idx is None:
        return "fallback" if iv.n >= _MIN_N else "full kernel"
    return "band" if above else "candidates"


@pytest.mark.parametrize("start,x,theta", kernel_starts())
def test_xstar_kernel_leaves_a_writeable_argument_unchanged(start, x, theta):
    assert x.flags.writeable and kernel_start(IndicatorVector(x), theta) == start
    before = x.copy()
    assert xstar_kernel(x, theta) == quickmark(x, theta).threshold
    assert x.flags.writeable and x.tobytes() == before.tobytes()


@pytest.mark.parametrize("name,x,theta", fallback_cases())
def test_fallback_runs_the_full_kernel(name, x, theta):
    iv = IndicatorVector(x)
    assert iv.n >= _MIN_N and not took_candidates(iv, theta)
    out = quickmark(iv, theta)
    marked, x_star, achieved = full_kernel(iv, theta)
    assert np.array_equal(out.marked, marked) and out.threshold == x_star
    assert out.achieved_sum == achieved
    assert xstar_kernel(iv.values.copy(), theta) == x_star

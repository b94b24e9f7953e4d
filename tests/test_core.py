"""Domain types, goal value, criterion predicate and the theta=1 path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmark import (
    ALGORITHM_NAMES,
    IndicatorVector,
    InvalidIndicatorsError,
    MarkingError,
    MarkingOutcome,
    MarkingParams,
    ParameterError,
    criterion_tolerance,
    gen_counterexample,
    goal_value,
    mark,
    mark_theta_one,
    satisfies_doerfler,
)

nonneg_lists = st.lists(
    st.integers(0, 1024).map(lambda k: k / 256.0), min_size=1, max_size=40
).filter(lambda xs: any(v > 0 for v in xs))


class TestIndicatorVector:
    def test_accepts_valid(self):
        iv = IndicatorVector([4, 1, 2, 3])
        assert iv.n == 4
        assert iv.total() == 10.0
        assert iv.max_value() == 4.0

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            [0.0, 0.0],
            [-1.0, 2.0],
            [np.nan, 1.0],
            [np.inf, 1.0],
            [[1.0, 2.0]],
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidIndicatorsError):
            IndicatorVector(bad)

    def test_values_are_immutable(self):
        iv = IndicatorVector([1.0, 2.0])
        with pytest.raises(ValueError):
            iv.values[0] = 5.0

    def test_input_is_copied(self):
        src = np.array([1.0, 2.0])
        iv = IndicatorVector(src)
        src[0] = 99.0
        assert iv.values[0] == 1.0

    def test_scratch_copy_is_independent(self):
        iv = IndicatorVector([1.0, 2.0])
        scratch = iv.scratch_copy()
        scratch[0] = 99.0
        assert iv.values[0] == 1.0


class TestMarkingParams:
    def test_valid(self):
        p = MarkingParams(theta=0.5, nu=0.3)
        assert not p.full_marking
        assert MarkingParams(theta=1.0).full_marking

    @pytest.mark.parametrize("theta", [0.0, -0.1, 1.5])
    def test_bad_theta(self, theta):
        with pytest.raises(ParameterError):
            MarkingParams(theta=theta)

    @pytest.mark.parametrize("nu", [0.0, 1.0, -0.2])
    def test_bad_nu(self, nu):
        with pytest.raises(ParameterError):
            MarkingParams(theta=0.5, nu=nu)


class TestGoalValue:
    def test_simple(self):
        assert goal_value([4, 1, 2, 3], 0.5) == 5.0

    def test_single_nonzero(self):
        assert goal_value([1, 0, 0], 0.9) == 0.9

    def test_counterexample_instance(self):
        # hand evaluation: sum = 1 + 7*(1/7) + 6*(1/2) = 5, v = 0.5 * 5
        x, spec = gen_counterexample(1, 0.5, 0.5)
        assert spec.N == 14
        assert goal_value(x, 0.5) == 2.5

    @pytest.mark.parametrize("theta", [0.0, -0.5, 1.0001])
    def test_rejects_bad_theta(self, theta):
        with pytest.raises(ParameterError):
            goal_value([1.0], theta)

    def test_theta_one_allowed(self):
        assert goal_value([2.0, 2.0], 1.0) == 4.0

    @given(nonneg_lists, st.integers(1, 63), st.sampled_from([0.25, 0.5, 0.75]))
    @settings(max_examples=60)
    def test_positively_homogeneous(self, xs, scale_num, theta):
        c = scale_num / 8.0
        base = goal_value(xs, theta)
        scaled = goal_value([c * v for v in xs], theta)
        assert scaled == pytest.approx(c * base, rel=1e-12)


class TestSatisfiesDoerfler:
    def test_examples(self):
        assert satisfies_doerfler([4, 1, 2, 3], 0.5, [0, 3]) is True
        assert satisfies_doerfler([4, 1, 2, 3], 0.5, [0]) is False

    def test_full_set_always_satisfies(self, rng):
        for _ in range(20):
            vals = rng.random(int(rng.integers(1, 50)))
            if not vals.any():
                vals[0] = 1.0
            theta = float(rng.uniform(0.05, 1.0))
            assert satisfies_doerfler(vals, theta, range(len(vals)))

    def test_empty_set_fails(self):
        assert satisfies_doerfler([1.0, 2.0], 0.5, []) is False

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            satisfies_doerfler([1.0, 2.0], 0.5, [2])
        with pytest.raises(IndexError):
            satisfies_doerfler([1.0, 2.0], 0.5, [-1])


class TestMarkThetaOne:
    @pytest.mark.parametrize(
        "x,expected",
        [
            ([1, 0, 2], {0, 2}),
            ([5], {0}),
            ([0, 0, 7, 0], {2}),
        ],
    )
    def test_examples(self, x, expected):
        assert mark_theta_one(x).marked_set == frozenset(expected)

    @given(nonneg_lists)
    @settings(max_examples=60)
    def test_cardinality_is_positive_support(self, xs):
        out = mark_theta_one(xs)
        assert out.cardinality == sum(1 for v in xs if v > 0)
        assert satisfies_doerfler(xs, 1.0, out.marked)


class TestMarkingOutcome:
    def test_from_marked_recomputes(self):
        out = MarkingOutcome.from_marked([4, 1, 2, 3], [0, 3])
        assert out.cardinality == 2
        assert out.achieved_sum == 7.0
        assert out.marked_set == frozenset({0, 3})

    def test_rejects_duplicates(self):
        with pytest.raises(MarkingError):
            MarkingOutcome.from_marked([1.0, 2.0], [0, 0])

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            MarkingOutcome.from_marked([1.0, 2.0], [5])

    def test_achieved_sum_within_tolerance(self, rng):
        vals = rng.random(500)
        marked = rng.choice(500, size=200, replace=False)
        out = MarkingOutcome.from_marked(vals, marked)
        assert abs(out.achieved_sum - float(vals[marked].sum())) <= criterion_tolerance(vals)


    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_marked_is_read_only_int64(self, algorithm, theta):
        out = mark([4.0, 1.0, 2.0, 3.0, 2.0], theta, algorithm).outcome
        assert isinstance(out.marked, np.ndarray)
        assert out.marked.dtype == np.int64
        assert not out.marked.flags.writeable
        with pytest.raises(ValueError):
            out.marked[0] = 1

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_threshold_set_by_the_kernel_only(self, algorithm, theta):
        run = mark([4.0, 1.0, 2.0, 3.0, 2.0], theta, algorithm)
        assert isinstance(run.outcome, MarkingOutcome)
        assert run.threshold is run.outcome.threshold
        kernel = algorithm in ("quickmark", "xstar") and theta < 1.0
        assert run.threshold == (3.0 if kernel else None)

    def test_from_marked_array_input(self):
        caller = np.array([3, 0])
        out = MarkingOutcome.from_marked([4, 1, 2, 3], caller)
        assert out.marked.tolist() == [3, 0]
        assert not out.marked.flags.writeable
        assert caller.flags.writeable  # the caller's array is not frozen
        with pytest.raises(MarkingError):
            MarkingOutcome.from_marked([1.0, 2.0, 3.0], np.array([2, 0, 2]))
        with pytest.raises(IndexError):
            MarkingOutcome.from_marked([1.0, 2.0], np.array([0, -1]))
        with pytest.raises(IndexError):
            MarkingOutcome.from_marked([1.0, 2.0], np.array([2]))


def test_satisfies_doerfler_collapses_duplicates():
    # [0, 0] carries 4 < 5 once the duplicate collapses, not 8
    assert satisfies_doerfler([4, 1, 2, 3], 0.5, [0, 0]) is False
    assert satisfies_doerfler([4, 1, 2, 3], 0.5, np.array([3, 0, 3])) is True


def test_criterion_tolerance_formula():
    vals = [1.0, 3.0, 2.0]
    assert criterion_tolerance(vals) == 4.0 * 3 * np.finfo(np.float64).eps * 3.0

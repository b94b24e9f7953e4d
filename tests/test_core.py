"""Domain types, goal value, criterion predicate and the theta=1 path."""

import math
import warnings

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
    OpCounter,
    ParameterError,
    binning_mark,
    criterion_tolerance,
    decrement_mark,
    gen_counterexample,
    goal_value,
    is_valid_minimal_set,
    mark,
    mark_theta_one,
    quickmark,
    satisfies_doerfler,
    sort_mark,
    xstar_kernel,
)
from dmark import core
from dmark.core import check_nu, check_theta

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

    @pytest.mark.parametrize(
        "bad,reason",
        [
            ([1.0, np.nan], "finite"),
            ([np.nan, -1.0], "finite"),
            ([1.0, -np.inf], "finite"),
            ([2.0, -1e-300], "nonnegative"),
            ([0.0, -0.0], "positive"),
        ],
    )
    def test_rejection_names_the_violated_condition(self, bad, reason):
        # validation reads only the extremes; NaN makes both of them NaN
        with pytest.raises(InvalidIndicatorsError, match=reason):
            IndicatorVector(bad)

    def test_total_is_summed_once(self, monkeypatch, rng):
        # the bin depth and the goal both read the total of one vector
        x = rng.random(1000)
        sizes = []
        pairwise_sum = core.pairwise_sum
        monkeypatch.setattr(
            core, "pairwise_sum", lambda a: sizes.append(a.size) or pairwise_sum(a)
        )
        iv = IndicatorVector(x)
        binning_mark(iv, 0.5, 0.5)
        assert sizes.count(x.size) == 1
        assert iv.total() == np.sum(x)

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


def read_only(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class TestAdoption:
    """Read-only float64 inputs are wrapped without a copy; all others are copied."""

    def test_read_only_owner_is_adopted(self):
        x = read_only([1.0, 2.0, 3.0])
        iv = IndicatorVector(x)
        assert np.shares_memory(iv.values, x)
        assert iv.total() == 6.0 and iv.max_value() == 3.0

    def test_read_only_view_of_read_only_owner_is_adopted(self):
        x = read_only([1.0, 2.0, 3.0, 4.0])
        assert np.shares_memory(IndicatorVector(x[1:]).values, x)

    def test_read_only_view_of_writeable_base_is_copied(self):
        base = np.array([1.0, 2.0, 3.0])
        view = base[:]
        view.setflags(write=False)
        iv = IndicatorVector(view)
        assert not np.shares_memory(iv.values, base)
        base[0] = 100.0
        assert iv.values.tolist() == [1.0, 2.0, 3.0]
        assert iv.total() == 6.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.array([1.0, 2.0, 3.0]),  # writeable
            lambda: read_only([1.0, 9.0, 2.0, 9.0, 3.0])[::2],  # strided
            lambda: read_only([1.0, 2.0, 3.0], np.float32),
            lambda: read_only([1.0, 2.0, 3.0], np.dtype(np.float64).newbyteorder()),
            # read-only, but the buffer it views is not
            lambda: np.frombuffer(memoryview(bytearray(read_only([1.0, 2.0, 3.0]))).toreadonly()),
        ],
        ids=["writeable", "strided", "float32", "byte-swapped", "read-only-buffer"],
    )
    def test_other_arrays_are_copied(self, make):
        x = make()
        iv = IndicatorVector(x)
        assert not np.shares_memory(iv.values, x)
        assert iv.values.dtype == np.float64 and iv.values.dtype.isnative
        assert iv.values.tolist() == [1.0, 2.0, 3.0]

    def test_list_is_copied(self):
        xs = [1.0, 2.0, 3.0]
        iv = IndicatorVector(xs)
        xs[0] = 100.0
        assert iv.values.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("make", [read_only, np.array, list], ids=["adopted", "array", "list"])
    def test_values_cannot_be_made_writeable(self, make):
        iv = IndicatorVector(make([1.0, 2.0]))
        with pytest.raises(ValueError):
            iv.values.setflags(write=True)


# the messages of check_indicators, which the two-pass validation keeps
INVALID = [
    ([1.0, np.nan], "indicators must be finite"),
    ([1.0, np.inf], "indicators must be finite"),
    ([-np.inf, 1.0], "indicators must be finite"),
    ([2.0, -1e-300], "indicators must be nonnegative"),
    ([0.0, 0.0], "at least one indicator must be positive"),
    ([0.0, -0.0], "at least one indicator must be positive"),
    ([], "indicator vector must not be empty"),
    ([[1.0, 2.0], [3.0, 4.0]], "indicators must be one-dimensional, got shape (2, 2)"),
]
ENTRY_POINTS = {
    "adopted": lambda xs: IndicatorVector(read_only(xs)),
    "copied": lambda xs: IndicatorVector(list(xs)),
    "xstar": lambda xs: xstar_kernel(np.array(xs, dtype=np.float64), 0.5),
}


@pytest.mark.parametrize("path", ENTRY_POINTS)
@pytest.mark.parametrize(
    "bad,message", INVALID,
    ids=["nan", "+inf", "-inf", "negative", "zeros", "signed-zeros", "empty", "2-D"],
)
def test_invalid_inputs_raise_the_same_message(path, bad, message):
    with pytest.raises(InvalidIndicatorsError) as info:
        ENTRY_POINTS[path](bad)
    assert str(info.value) == message


@pytest.mark.parametrize("path", ["adopted", "copied"])
@pytest.mark.parametrize(
    "xs,total,largest",
    [([1e308, 1e308, 1e307], np.inf, 1e308), ([-0.0, 2.0, 0.5], 2.5, 2.0), ([5e-324], 5e-324, 5e-324)],
)
def test_valid_edge_inputs_are_accepted(path, xs, total, largest):
    # a sum of finite entries that overflows, a negative zero, a subnormal
    iv = ENTRY_POINTS[path](xs)
    assert iv.total() == total and iv.max_value() == largest


class TestMarkingParams:
    # theta and nu are validated by check_theta and check_nu at every entry
    def test_valid(self):
        check_theta(0.5)
        check_nu(0.3)
        check_theta(1.0, allow_one=True)
        with pytest.raises(ParameterError):
            check_theta(1.0)

    @pytest.mark.parametrize("theta", [0.0, -0.1, 1.5])
    def test_bad_theta(self, theta):
        with pytest.raises(ParameterError):
            check_theta(theta, allow_one=True)

    @pytest.mark.parametrize("nu", [0.0, 1.0, -0.2])
    def test_bad_nu(self, nu):
        with pytest.raises(ParameterError):
            check_nu(nu)


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
        assert set(mark_theta_one(x).marked.tolist()) == frozenset(expected)

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
        assert set(out.marked.tolist()) == frozenset({0, 3})

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
        kernel = algorithm in ("quickmark", "xstar") and theta < 1.0
        assert run.outcome.threshold == (3.0 if kernel else None)

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


NON_INTEGER_SETS = [[0.9, 3.7], np.array([0.0, 3.0]), np.ones(4, dtype=bool), [True, False]]


@pytest.mark.parametrize("marked", NON_INTEGER_SETS)
def test_non_integer_index_sets_rejected(marked):
    # a cast would read [0.9, 3.7] as {0, 3} and a boolean mask as {0, 1}
    x = [4.0, 1.0, 2.0, 3.0]
    with pytest.raises(MarkingError, match="integers"):
        satisfies_doerfler(x, 0.5, marked)
    with pytest.raises(MarkingError, match="integers"):
        MarkingOutcome.from_marked(x, marked)
    with pytest.raises(MarkingError, match="integers"):
        is_valid_minimal_set(x, marked, 5.0)


def test_integer_and_empty_index_sets_accepted():
    x = [4.0, 1.0, 2.0, 3.0]
    for marked in ([0, 3], np.array([0, 3], dtype=np.int32), np.array([3, 0], dtype=np.uint8)):
        assert satisfies_doerfler(x, 0.5, marked) is True
        assert MarkingOutcome.from_marked(x, marked).cardinality == 2
    assert satisfies_doerfler(x, 0.5, []) is False
    assert MarkingOutcome.from_marked(x, []).cardinality == 0


def test_satisfies_doerfler_collapses_duplicates():
    # [0, 0] carries 4 < 5 once the duplicate collapses, not 8
    assert satisfies_doerfler([4, 1, 2, 3], 0.5, [0, 0]) is False
    assert satisfies_doerfler([4, 1, 2, 3], 0.5, np.array([3, 0, 3])) is True


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_counter_through_mark_is_deterministic_and_changes_no_set(algorithm):
    x = np.random.default_rng(42).random(1000)
    plain = mark(x, 0.5, algorithm).outcome.marked
    counts = []
    for _ in range(2):
        counter = OpCounter()
        assert np.array_equal(mark(x, 0.5, algorithm, counter=counter).outcome.marked, plain)
        counts.append(counter.comparisons)
    assert counts[0] > 0
    assert counts[0] == counts[1]


def test_criterion_tolerance_formula():
    vals = [1.0, 3.0, 2.0]
    assert criterion_tolerance(vals) == 4.0 * 3 * np.finfo(np.float64).eps * 3.0


@pytest.mark.parametrize("theta", [0.3, 0.45, 0.9])
def test_overflowing_sum_raises_no_warning(theta):
    # the total overflows to inf; every entry point still answers, with the
    # same set through mark() and directly, and no numpy warning escapes
    x = [1e308, 1e308, 1e307]
    direct = {
        "sort": lambda: sort_mark(x, theta).marked,
        "decrement": lambda: decrement_mark(x, theta, 0.5).marked,
        "binning": lambda: binning_mark(x, theta, 0.5).marked,
        "quickmark": lambda: quickmark(x, theta).marked,
        "xstar": lambda: np.flatnonzero(np.array(x) >= xstar_kernel(np.array(x), theta)),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ALGORITHM_NAMES:
            marked = mark(x, theta, name).outcome.marked
            assert sorted(marked.tolist()) == sorted(direct[name]().tolist())
            assert satisfies_doerfler(x, theta, marked)
        # the debug checks accept the set: the removal test must not read
        # inf - 1e308 >= inf, and the kernel must count the mass it fixes
        # toward the overflowed goal
        assert quickmark(x, theta, check_invariants=True).marked.tolist() == [0, 1]


@given(
    st.lists(st.floats(0.0, 1.7e308), min_size=1, max_size=12).filter(lambda xs: max(xs) > 0),
    st.sampled_from([0.3, 0.45, 0.9]),
)
@settings(max_examples=80, deadline=None)
def test_huge_entries_raise_no_warning(xs, theta):
    # sums near and beyond the largest double, whether or not they overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ALGORITHM_NAMES:
            assert satisfies_doerfler(xs, theta, mark(xs, theta, name).outcome.marked)


@given(
    st.lists(st.floats(0.0, 1.7e308), min_size=1, max_size=12).filter(lambda xs: max(xs) > 0),
    st.sampled_from([0.3, 0.45, 0.9]),
)
@settings(max_examples=80, deadline=None)
def test_huge_entries_raise_no_warning_when_adopted(xs, theta):
    # the same sums on read-only arrays, which the vector wraps without a copy
    x = read_only(xs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.shares_memory(IndicatorVector(x).values, x)
        for name in ALGORITHM_NAMES:
            assert satisfies_doerfler(x, theta, mark(x, theta, name).outcome.marked)


def test_first_reaching_is_the_first_exact_prefix():
    # the stop rule against a brute-force scan of correctly rounded prefix
    # sums, with the goal on a prefix sum or one ulp off, ties, zeros and
    # sums that overflow, settled in few probes
    rng = np.random.default_rng(99)
    for trial in range(3000):
        n = int(rng.integers(1, 60))
        scale = 1e307 if trial % 10 == 0 else 1.0
        pool = np.array([float(f"{v:.1e}") for v in (10.0 ** rng.uniform(-6, 0, 4)).tolist()])
        desc = np.sort(rng.choice(np.append(pool, 0.0), n) * scale)[::-1]
        if trial % 3 == 0:
            desc[int(rng.integers(n)) :] = 0.0
        exact = [core._fsum(desc[: j + 1]) for j in range(n)]
        with np.errstate(over="ignore"):
            prefix = np.cumsum(desc)
        v = exact[int(rng.integers(n))]
        if trial % 20 == 1:
            v = float(prefix[-1]) * 2.0
        v = (v, math.nextafter(v, math.inf), math.nextafter(v, 0.0))[trial % 3]
        probed = []

        def probe(j):
            probed.append(j)
            return exact[j]

        expected = next((j for j in range(n) if exact[j] >= v), n)
        assert core._first_reaching(prefix, v, n, probe) == expected, (desc.tolist(), v)
        assert len(probed) <= 2 + n.bit_length()

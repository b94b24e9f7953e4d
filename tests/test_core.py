"""Domain types, goal value, criterion predicate and the theta=1 path."""

import math
import warnings
from fractions import Fraction

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
from dmark.io import write_marked_indices

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

    @pytest.mark.parametrize("n", [1, 2, core._M0, core._M0 + 1])
    @pytest.mark.parametrize(
        "case,message",
        [
            ("nan", "indicators must be finite"),
            ("+inf", "indicators must be finite"),
            ("-inf", "indicators must be finite"),
            ("negative", "indicators must be nonnegative"),
            ("zeros", "at least one indicator must be positive"),
            ("negative zeros", "at least one indicator must be positive"),
            ("empty", "indicator vector must not be empty"),
            ("2-D", "indicators must be one-dimensional, got shape (1, {n})"),
        ],
    )
    def test_sorted_and_unsigned_validation_raise_alike(self, n, case, message):
        # up to _M0 entries validation reads a sorted copy, above it the
        # unsigned maximum; both leave the message to check_indicators
        x = np.ones(n)
        if case in ("nan", "+inf", "-inf", "negative"):
            x[n // 2] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf, "negative": -1.0}[case]
        elif case == "zeros":
            x[:] = 0.0
        elif case == "negative zeros":
            x[:] = -0.0
        elif case == "empty":
            x = x[:0]
        else:
            x = x.reshape(1, n)
        message = message.format(n=n)
        for call in (
            IndicatorVector,
            lambda x: IndicatorVector(read_only(x)),
            lambda x: IndicatorVector(x.tolist()),
            lambda x: xstar_kernel(x.copy(), 0.5),
            *(lambda x, a=a: mark(x, 0.5, a) for a in ALGORITHM_NAMES),
        ):
            with pytest.raises(InvalidIndicatorsError) as info:
                call(x)
            assert str(info.value) == message

    @pytest.mark.parametrize("n", [2, core._M0, core._M0 + 1])
    def test_negative_zeros_beside_positive_entries_are_valid(self, n):
        x = np.ones(n)
        x[::2] = -0.0
        iv = IndicatorVector(x)
        assert (iv._sorted is not None) == (n <= core._M0)
        assert iv.max_value() == 1.0 and iv.total() == n // 2
        for algorithm in ALGORITHM_NAMES:
            assert satisfies_doerfler(x, 0.5, mark(x, 0.5, algorithm).outcome.marked)
        assert xstar_kernel(x.copy(), 0.5) == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([1.0, "a"], dtype=object),
            b"\x00\x00",
            {1: 2},
            [1.0, "a"],
            np.array([1.0 + 2.0j, 2.0]),
            np.array([1.0 + 0.0j, 2.0]),
            np.array([3, 5], dtype="timedelta64[ms]"),
            np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"),
            [np.datetime64("2020-01-01"), np.datetime64("2020-01-02")],
            [np.timedelta64(3, "s"), np.timedelta64(5, "s")],
            np.timedelta64(3, "s"),
            [np.datetime64("2020-01-01"), 1.0],
            np.array([np.timedelta64(3, "ms"), 1.0], dtype=object),
            np.array([1.0, np.complex128(1.0 + 2.0j)], dtype=object),
        ],
        ids=["object-str", "bytes", "dict", "list-str", "complex", "complex-real-valued",
             "timedelta-array", "datetime-array", "datetime-list", "timedelta-list",
             "timedelta-scalar", "datetime-in-mixed-list", "timedelta-in-object-array",
             "complex-in-object-array"],
    )
    def test_non_numeric_input_raises_invalid_indicators(self, bad):
        # a complex, date or time array, or such an element of an object
        # array or a mixed list, is rejected before a cast that would drop
        # its imaginary part or its unit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (IndicatorVector, lambda x: mark(x, 0.5), lambda x: xstar_kernel(x, 0.5)):
                with pytest.raises(InvalidIndicatorsError):
                    call(bad)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: mark([10**400, 1], 0.5),
            lambda: IndicatorVector([10**400, 1]),
            lambda: xstar_kernel(["a"], 0.5),
            lambda: xstar_kernel({1: 2}, 0.5),
            lambda: xstar_kernel([10**400, 1.0], 0.5),
            lambda: xstar_kernel(np.array([1 + 1j, 2]), 0.5),
        ],
        ids=["mark-huge-int", "vector-huge-int", "xstar-str", "xstar-dict", "xstar-huge-int",
             "xstar-complex"],
    )
    def test_every_conversion_raises_invalid_indicators(self, call):
        # IndicatorVector and xstar_kernel convert through one guard, so an
        # integer beyond the doubles or a complex array raises no OverflowError
        # or ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidIndicatorsError):
                call()

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

    @pytest.mark.parametrize("value", ["0.5", None, 0.5 + 0j, np.complex128(0.5), [0.5]])
    def test_non_real_parameters_raise_parameter_error(self, value):
        with pytest.raises(ParameterError, match="theta must lie in"):
            mark([1.0, 2.0], value)
        with pytest.raises(ParameterError, match="theta must lie in"):
            check_theta(value, allow_one=True)
        with pytest.raises(ParameterError, match="nu must lie in"):
            mark([1.0, 2.0], 0.5, "binning", nu=value)

    @pytest.mark.parametrize("theta", [np.float64(0.3), np.float32(0.3), Fraction(3, 10)])
    def test_real_parameters_of_other_types_pass_as_floats(self, theta):
        assert type(check_theta(theta)) is float and check_theta(theta) == float(theta)
        assert type(check_nu(theta)) is float and check_nu(theta) == float(theta)
        assert type(check_theta(np.int64(1), allow_one=True)) is float
        # taken as is, a float32 theta or nu would put the goal and the bounds
        # in float32, whose range ends near 3.4e38, and mark every entry here
        x = [1e308, 1e308, 1e307]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for algorithm in ALGORITHM_NAMES:
                out = mark(x, theta, algorithm, nu=theta).outcome
                assert out.marked.tolist() == [0] and out.achieved_sum == 1e308
            for run in (decrement_mark, binning_mark):
                assert run(x, theta, theta).marked.tolist() == [0]
            assert math.isfinite(goal_value(x, theta))

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("nu", [math.nan, 0.0, 1.0])
    def test_mark_checks_nu_for_every_algorithm(self, algorithm, theta, nu):
        with pytest.raises(ParameterError, match="nu must lie in"):
            mark([1.0, 2.0], theta, algorithm, nu=nu)

    def test_unknown_algorithm(self):
        with pytest.raises(ParameterError) as info:
            mark([1.0, 2.0], 0.5, "nope")
        assert str(info.value) == f"unknown algorithm 'nope'; choose from {ALGORITHM_NAMES}"


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


@pytest.mark.parametrize("field", ["marked", "achieved_sum", "cardinality", "threshold"])
def test_outcome_fields_are_read_only(field):
    out = quickmark([4.0, 1.0, 2.0, 3.0], 0.5)
    before = getattr(out, field)
    with pytest.raises(AttributeError):
        setattr(out, field, None)
    assert getattr(out, field) is before


@pytest.mark.parametrize("field", ["algorithm", "outcome"])
def test_run_fields_are_read_only(field):
    run = mark([4.0, 1.0, 2.0, 3.0], 0.5)
    before = getattr(run, field)
    with pytest.raises(AttributeError):
        setattr(run, field, None)
    assert getattr(run, field) is before


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
        # sort's cut is the kernel's base case over the whole vector
        kernel = algorithm in ("quickmark", "xstar", "sort") and theta < 1.0
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


@pytest.mark.parametrize(
    "call",
    [
        lambda tmp: write_marked_indices(tmp / "m.txt", [[0]]),
        lambda tmp: write_marked_indices(tmp / "m.txt", np.array([[0, 1]])),
        lambda tmp: MarkingOutcome.from_marked([1.0, 2.0], [[0], [1]]),
        lambda tmp: MarkingOutcome.from_marked([1.0, 2.0], np.array(1)),
        lambda tmp: satisfies_doerfler([1.0, 2.0], 0.5, [[0, 1]]),
        lambda tmp: satisfies_doerfler([1.0, 2.0], 0.5, 5),
        lambda tmp: is_valid_minimal_set([1.0, 2.0], None, 1.0),
    ],
    ids=["write-nested", "write-2d", "from-marked-nested", "from-marked-0d",
         "doerfler-nested", "doerfler-int", "minimal-none"],
)
def test_index_sets_must_be_one_dimensional(call, tmp_path):
    # neither flattened nor written as a malformed line such as "[0]"
    with pytest.raises(MarkingError, match="marked indices must be"):
        call(tmp_path)
    assert not (tmp_path / "m.txt").exists()


def test_integer_and_empty_index_sets_accepted():
    x = [4.0, 1.0, 2.0, 3.0]
    for marked in ([0, 3], np.array([0, 3], dtype=np.int32), np.array([3, 0], dtype=np.uint8)):
        assert satisfies_doerfler(x, 0.5, marked) is True
        assert MarkingOutcome.from_marked(x, marked).cardinality == 2
    assert satisfies_doerfler(x, 0.5, []) is False
    assert MarkingOutcome.from_marked(x, []).cardinality == 0


BEYOND_INT64 = [
    (np.array([5, 2**63], dtype=np.uint64), 2**63),
    (np.array([2**64 - 1, 0], dtype=np.uint64), 2**64 - 1),
    ([5, 2**63], 2**63),
    ([0, -(2**63) - 1], -(2**63) - 1),
    ([2**70], 2**70),
]


@pytest.mark.parametrize("marked,value", BEYOND_INT64)
def test_indices_beyond_int64_named(marked, value):
    # the cast to int64 would wrap 2**63 to -2**63, a value never passed
    x = [4.0, 1.0, 2.0, 3.0]
    message = f"marked index {value} is outside the int64 range"
    with pytest.raises(MarkingError, match=message):
        satisfies_doerfler(x, 0.5, marked)
    with pytest.raises(MarkingError, match=message):
        MarkingOutcome.from_marked(x, marked)
    with pytest.raises(MarkingError, match=message):
        is_valid_minimal_set(x, marked, 5.0)


def test_uint64_indices_in_the_int64_range():
    x = [4.0, 1.0, 2.0, 3.0]
    assert satisfies_doerfler(x, 0.5, np.array([3, 0], dtype=np.uint64)) is True
    assert MarkingOutcome.from_marked(x, np.array([3, 0], dtype=np.uint64)).cardinality == 2
    # in the int64 range but not in the vector: the documented IndexError
    for marked in (np.array([2**63 - 1], dtype=np.uint64), [2**63 - 1]):
        with pytest.raises(IndexError):
            satisfies_doerfler(x, 0.5, marked)
        with pytest.raises(IndexError):
            MarkingOutcome.from_marked(x, marked)


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
        "xstar": lambda: quickmark(x, theta).marked,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ALGORITHM_NAMES:
            marked = mark(x, theta, name).outcome.marked
            assert sorted(marked.tolist()) == sorted(direct[name]().tolist())
            assert satisfies_doerfler(x, theta, marked)
        # the threshold does not fix the cut among the ties at 1e308
        assert xstar_kernel(np.array(x), theta) == quickmark(x, theta).threshold == 1e308
        # the debug checks accept the set, the exact N_min: one entry
        # carries 0.3 and 0.45 of the sum, two carry 0.9
        expected = [0, 1] if theta == 0.9 else [0]
        assert quickmark(x, theta, check_invariants=True).marked.tolist() == expected


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
        if prefix[-1] < v * (1.0 - 2.0 * (n + 1) * core.EPS):
            assert not probed, (desc.tolist(), v)

    def never(j):
        raise AssertionError(f"probed {j} below the window")

    # an empty walk, and a walk whose last prefix lies just below the window
    # of m = 4 summands, return their length without a probe
    assert core._first_reaching(np.empty(0), 1.0, 0, never) == 0
    edge = 1.0 - 2.0 * (4 + 1) * core.EPS
    assert core._first_reaching(np.array([0.25, 0.5, math.nextafter(edge, 0.0)]), 1.0, 4, never) == 3
    # just inside it, the float sum cannot tell, and the probe decides
    for reaches, expected in ((True, 2), (False, 3)):
        probed = []

        def probe(j):
            probed.append(j)
            return 1.0 if reaches and j == 2 else 0.5

        assert core._first_reaching(np.array([0.25, 0.5, edge]), 1.0, 4, probe) == expected
        assert probed == [2]

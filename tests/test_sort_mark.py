"""Sort-based minimal marking: examples, minimality structure, invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmark import (
    OpCounter,
    ParameterError,
    goal_value,
    mark,
    quickmark,
    satisfies_doerfler,
    sort_mark,
)
from dmark.quickmark import _EXACT_MAX, _M0, _counted_sort_desc
from test_quickmark import boundary_instance

dyadic_lists = st.lists(
    st.integers(0, 1024).map(lambda k: k / 256.0), min_size=1, max_size=30
).filter(lambda xs: any(v > 0 for v in xs))


def test_basic_example():
    out = sort_mark([4, 1, 2, 3], 0.5)
    assert set(out.marked.tolist()) == {0, 3}
    assert out.cardinality == 2


def test_tie_broken_by_ascending_index():
    out = sort_mark([2, 2, 2, 2], 0.5)
    assert out.cardinality == 2
    assert out.marked.tolist() == [0, 1]


def test_single_dominant_entry():
    out = sort_mark([1, 0, 0, 0], 0.3)
    assert set(out.marked.tolist()) == {0}


def test_threshold_is_the_smallest_marked_value(rng):
    # the cut's value: on tie-heavy boundary inputs, on both sides of
    # _EXACT_MAX, and through a counter, which changes no outcome; up to
    # _M0 entries quickmark runs the same cut
    for n in (1, 2, 7, 40, _M0, 300, 3000):
        for _ in range(20):
            x, theta = boundary_instance(rng, n)
            if theta >= 1.0:
                continue
            out = sort_mark(x, theta)
            assert out.threshold == float(x[out.marked].min()), (n, theta)
            if n <= _M0:
                assert out.threshold == quickmark(x, theta).threshold
    counted = sort_mark([4.0, 1.0, 2.0, 3.0, 2.0], 0.5, OpCounter())
    assert counted.threshold == 3.0


def test_theta_one_rejected():
    with pytest.raises(ParameterError):
        sort_mark([1.0, 2.0], 1.0)


def assert_exact_cut(x, theta, count):
    """fsum(desc[:count - 1]) < goal <= fsum(desc[:count]), the latter unless clamped to N."""
    desc = np.sort(x)[::-1].tolist()
    v = goal_value(x, theta)
    assert math.fsum(desc[: count - 1]) < v
    assert count == len(desc) or math.fsum(desc[:count]) >= v


def test_minimality_characterization(rng):
    for _ in range(200):
        n = int(rng.integers(1, 300))
        vals = rng.random(n)
        if not vals.any():
            vals[0] = 1.0
        theta = float(rng.uniform(0.05, 0.95))
        assert_exact_cut(vals, theta, sort_mark(vals, theta).cardinality)


def test_exact_cut_up_to_exact_max():
    # up to _EXACT_MAX entries the cut is the shared stop rule's, in math.fsum
    rng = np.random.default_rng(4246)
    for n in [int(rng.integers(2, _EXACT_MAX + 1)) for _ in range(300)] + [_EXACT_MAX] * 20:
        x, theta = boundary_instance(rng, n)
        assert_exact_cut(x, theta, sort_mark(x, theta).cardinality)


def test_same_set_as_quickmark_up_to_m0():
    # up to _M0 entries quickmark's kernel is its base case, the cut sort runs
    rng = np.random.default_rng(4245)
    for n in [int(rng.integers(2, _M0 + 1)) for _ in range(1000)] + [_M0] * 50:
        x, theta = boundary_instance(rng, n)
        by_sort, by_select = sort_mark(x, theta), quickmark(x, theta)
        assert np.array_equal(by_sort.marked, by_select.marked)
        assert by_sort.achieved_sum.hex() == by_select.achieved_sum.hex()
        assert by_sort.cardinality == by_select.cardinality


def float_cut_marked(x, theta):
    """The float cut's set: the first running sum of the descending order to reach the goal."""
    prefix = np.cumsum(np.sort(x)[::-1])
    n = min(int(np.searchsorted(prefix, goal_value(x, theta))), x.size - 1) + 1
    return np.sort(np.argsort(-x, kind="stable")[:n])


def test_float_cut_above_exact_max():
    # above _EXACT_MAX entries the cut is the float cut of earlier releases
    rng = np.random.default_rng(4247)
    for trial in range(60):
        n = int(rng.integers(_EXACT_MAX + 1, 20_000))
        if trial % 3 == 0:
            x, theta = boundary_instance(rng, n)
        else:
            x = rng.random(n) if trial % 3 == 1 else rng.lognormal(0.0, 2.5, n)
            theta = float(rng.uniform(0.05, 0.95))
        assert np.array_equal(sort_mark(x, theta).marked, float_cut_marked(x, theta))


def test_removal_property(rng):
    # dropping any marked index loses the criterion
    for _ in range(100):
        vals = rng.random(int(rng.integers(1, 120)))
        if not vals.any():
            vals[0] = 1.0
        theta = float(rng.uniform(0.1, 0.9))
        out = sort_mark(vals, theta)
        v = goal_value(vals, theta)
        for k in out.marked:
            reduced = out.achieved_sum - vals[k]
            assert reduced < v


@given(dyadic_lists, st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]), st.randoms())
@settings(max_examples=80)
def test_cardinality_invariant_under_permutation(xs, theta, pyrandom):
    base = sort_mark(xs, theta).cardinality
    shuffled = list(xs)
    pyrandom.shuffle(shuffled)
    assert sort_mark(shuffled, theta).cardinality == base


def test_output_satisfies_criterion(rng):
    for _ in range(100):
        vals = rng.random(int(rng.integers(1, 200)))
        if not vals.any():
            vals[0] = 1.0
        theta = float(rng.uniform(0.01, 0.99))
        out = sort_mark(vals, theta)
        assert satisfies_doerfler(vals, theta, out.marked)


def test_counted_path_matches_fast(rng):
    for _ in range(30):
        vals = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=int(rng.integers(1, 150)))
        if not vals.any():
            vals[0] = 1.0
        counter = OpCounter()
        counted = sort_mark(vals, 0.4, counter)
        fast = sort_mark(vals, 0.4)
        assert np.array_equal(counted.marked, fast.marked)
        assert counter.comparisons > 0
        # tie-heavy inputs: the counted sort gives numpy's values
        assert np.array_equal(
            _counted_sort_desc(vals.tolist(), OpCounter()), np.sort(vals)[::-1]
        )


def stable_argsort_marked(x, theta):
    """The first ``n`` indices of the stable descending index sort, ascending."""
    n = sort_mark(x, theta).cardinality
    return np.sort(np.argsort(-np.asarray(x), kind="stable")[:n])


def equivalence_cases(rng):
    for kind in ("uniform", "lognormal", "ties", "signed zeros"):
        for _ in range(100):
            n = int(rng.integers(1, 300))
            if kind == "uniform":
                x = rng.random(n)
            elif kind == "lognormal":
                x = rng.lognormal(0.0, 2.5, n)
            elif kind == "ties":
                x = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=n)
            else:
                x = rng.choice([-0.0, 0.0, 0.5, 1.0], size=n)
            if not np.any(x > 0):
                x[0] = 1.0
            yield x, float(rng.uniform(0.01, 0.99))
    for _ in range(300):
        yield boundary_instance(rng, int(rng.integers(2, 60)))


def test_matches_stable_argsort_reference(rng):
    for x, theta in equivalence_cases(rng):
        assert sort_mark(x, theta).marked.tolist() == stable_argsort_marked(x, theta).tolist()


def test_clamped_cut_takes_zeros_of_either_sign():
    # the float running sum of all 13 falls short of the pairwise goal, but
    # the correctly rounded sum of the 11 positive entries reaches it
    x = [0.391, 0.467, 0.824, 0.681, 0.837, 0.0, 0.691, 0.913, 0.823, 0.179, 0.748, 0.087, -0.0]
    theta = math.nextafter(1.0, 0.0)
    assert np.cumsum(np.sort(x)[::-1])[-1] < goal_value(x, theta)
    assert sort_mark(x, theta).marked.tolist() == [0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11]
    # here even the correctly rounded sum of all 13 falls short, so the cut is
    # clamped to the whole vector and its value is a zero of either sign
    x = [0.749, 0.0, 0.332, 0.719, 0.982, 0.928, 0.966, 0.227, 0.56, -0.0, 0.251, 0.081, 0.438]
    assert math.fsum(x) < goal_value(x, theta)
    assert sort_mark(x, theta).marked.tolist() == list(range(13))


def test_agrees_with_quickmark_where_cardinalities_agree(rng):
    agreed = 0
    for x, theta in equivalence_cases(rng):
        by_sort = mark(x, theta, "sort").outcome
        by_select = mark(x, theta, "quickmark").outcome
        if by_sort.cardinality != by_select.cardinality:
            continue
        agreed += 1
        assert np.array_equal(by_sort.marked, by_select.marked)
        assert by_sort.achieved_sum.hex() == by_select.achieved_sum.hex()
    assert agreed > 600

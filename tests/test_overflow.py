"""Inputs whose float sums can pass the largest double.

``IndicatorVector`` divides such an input by a power of two ``2**s``, read
off the exponents of ``N`` and the largest entry, so that no float sum of
the working entries overflows.  Every strategy then cuts the working
entries, and every number it reports is scaled back.  The checks here are
exact: the goal is ``Fraction(theta)`` times the exact sum of the input,
and ``N_min`` is the shortest descending prefix that reaches it.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dmark import (
    ALGORITHM_NAMES,
    IndicatorVector,
    goal_value,
    is_valid_minimal_set,
    mark,
    nmin_exhaustive,
    sort_mark,
    xstar_kernel,
)
from dmark.quickmark import _candidates

SUM_LIMIT = float(np.finfo(np.float64).max) / 2
ROADMAP_EXAMPLE = [1e308, 1e308, 1e307]


def exact_units(x) -> list[int]:
    """Each entry as an integer multiple of ``2**-1074``, which every double is."""
    units = []
    for v in np.asarray(x, dtype=np.float64).tolist():
        p, q = v.as_integer_ratio()
        units.append(p << (1075 - q.bit_length()))
    return units


def exact_goal(x, theta) -> Fraction:
    return Fraction(theta) * sum(exact_units(x))


def exact_nmin(x, theta) -> int:
    goal, acc = exact_goal(x, theta), 0
    for k, u in enumerate(sorted(exact_units(x), reverse=True), start=1):
        acc += u
        if acc >= goal:
            return k
    raise AssertionError("theta < 1 leaves a prefix that reaches the goal")


def shift(x) -> int:
    """The ``s`` with ``N * max / 2**s < 2**1022`` that the working entries take."""
    return len(x).bit_length() + math.frexp(float(np.max(x)))[1] - 1022


def seeded_case(rng):
    """2-3,000 entries whose largest lies in 1e300..1.7e308 and, unless one
    entry carries almost all of the mass, whose exact sum passes the
    largest double."""
    n = int(np.exp(rng.uniform(math.log(2), math.log(3000))))
    kind = rng.integers(3)
    if kind == 0:
        x = rng.random(n)
    elif kind == 1:
        x = rng.lognormal(0.0, 2.5, n)
    else:
        x = rng.choice([0.0, 0.125, 0.25, 0.5, 1.0, 2.0], n)
    x[int(rng.integers(n))] = 1.0
    top, total = float(x.max()), float(x.sum())
    hi = math.log10(1.7e308 / top)
    lo = min(hi, max(300.0 - math.log10(top), math.log10(1.8e308 / total)))
    x *= 10.0 ** rng.uniform(lo, hi)
    return x, float(rng.uniform(0.05, 0.95))


def candidate_case():
    """2**16 lognormal entries scaled to a sum past the largest double."""
    x = np.random.default_rng(2020).lognormal(0.0, 2.5, 2**16)
    return x * (1e308 / x.max()), 0.5


def cases():
    out = [pytest.param(ROADMAP_EXAMPLE, t, id=f"roadmap-{t}") for t in (0.3, 0.45, 0.9)]
    rng = np.random.default_rng(1907)
    out += [pytest.param(*seeded_case(rng), id=f"seeded-{i}") for i in range(40)]
    out.append(pytest.param(*candidate_case(), id="candidates"))
    return out


CASES = cases()


def run_all(x, theta):
    """Every strategy's outcome and ``xstar_kernel``'s threshold, with every
    warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = {name: mark(x, theta, name).outcome for name in ALGORITHM_NAMES}
        return outcomes, xstar_kernel(np.array(x, dtype=np.float64), theta)


@pytest.mark.parametrize("x,theta", CASES)
def test_every_set_reaches_the_exact_goal(x, theta):
    assert len(x) * float(np.max(x)) >= SUM_LIMIT
    units, goal = exact_units(x), exact_goal(x, theta)
    outcomes, _ = run_all(x, theta)
    for name, out in outcomes.items():
        assert sum(units[i] for i in out.marked.tolist()) >= goal, name


@pytest.mark.parametrize("x,theta", CASES)
def test_minimal_strategies_return_the_exact_nmin(x, theta):
    nmin = exact_nmin(x, theta)
    outcomes, threshold = run_all(x, theta)
    for name in ("quickmark", "xstar", "sort"):
        assert outcomes[name].cardinality == nmin, name
    assert threshold == outcomes["quickmark"].threshold
    assert threshold == float(np.asarray(x)[outcomes["quickmark"].marked].min())


@pytest.mark.parametrize("x,theta", CASES)
def test_outcomes_are_those_of_the_scaled_input(x, theta):
    # the working entries are x * 2**-s, on which no sum overflows; the
    # reported threshold and achieved sum are that input's times 2**s
    x = np.asarray(x, dtype=np.float64)
    scale = 2.0 ** shift(x)
    y = x * (1.0 / scale)
    assert len(y) * float(y.max()) < 2.0**1022
    big, small = run_all(x, theta), run_all(y, theta)
    for name in ALGORITHM_NAMES:
        a, b = big[0][name], small[0][name]
        assert np.array_equal(a.marked, b.marked), name
        assert a.achieved_sum == b.achieved_sum * scale, name
        assert (a.threshold, b.threshold) == (None, None) or a.threshold == b.threshold * scale
    assert big[1] == small[1] * scale


def test_large_case_takes_the_candidate_path():
    x, theta = candidate_case()
    iv = IndicatorVector(x)
    assert iv.total() == math.inf
    start, fixed, above, idx, room = _candidates(iv._work, theta, iv._goal(theta))
    assert idx is not None or room is not None


def test_reported_numbers_are_in_the_callers_units():
    iv = IndicatorVector(ROADMAP_EXAMPLE)
    assert iv.total() == math.inf and iv.max_value() == 1e308
    assert iv.values.tolist() == ROADMAP_EXAMPLE
    assert iv.values.copy().tolist() == ROADMAP_EXAMPLE
    out = mark(ROADMAP_EXAMPLE, 0.3).outcome
    assert out.threshold == out.achieved_sum == 1e308


def test_goal_value_is_the_goal_the_strategies_cut_against():
    # theta times the working sum, scaled back once: finite, though total() is inf
    goal = goal_value(ROADMAP_EXAMPLE, 0.3)
    iv = IndicatorVector(ROADMAP_EXAMPLE)
    assert iv.total() == math.inf
    assert math.isfinite(goal) and goal == pytest.approx(6.3e307)
    assert goal == iv._goal(0.3) * iv._scale
    assert is_valid_minimal_set(ROADMAP_EXAMPLE, [0], goal)
    assert not is_valid_minimal_set(ROADMAP_EXAMPLE, [0, 1], goal)
    assert mark(ROADMAP_EXAMPLE, 0.3).outcome.achieved_sum >= goal


@pytest.mark.parametrize("x,theta", CASES)
def test_sort_threshold_is_the_smallest_marked_value(x, theta):
    out = sort_mark(x, theta)
    assert out.threshold == float(np.asarray(x)[out.marked].min())


def test_read_only_input_is_still_adopted():
    x = np.array(ROADMAP_EXAMPLE)
    x.setflags(write=False)
    iv = IndicatorVector(x)
    assert np.shares_memory(iv.values, x)
    assert mark(iv, 0.3).outcome.marked.tolist() == [0]


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_theta_one_marks_every_positive_entry(name):
    # the subnormal entry is 0 among the working entries; theta = 1 reads values
    out = mark([1e308, 1e308, 5e-324], 1.0, name).outcome
    assert out.marked.tolist() == [0, 1, 2]


@pytest.mark.parametrize("theta,nmin", [(0.3, 1), (0.45, 1), (0.9, 2)])
def test_exhaustive_oracle_sums_the_working_entries(theta, nmin):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nmin_exhaustive(ROADMAP_EXAMPLE, theta) == nmin == exact_nmin(ROADMAP_EXAMPLE, theta)

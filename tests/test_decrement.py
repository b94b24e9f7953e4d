"""Threshold-decrement marking: sweep semantics, cost and the witness family."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import KINDS, instance
from dmark import (
    MarkingError,
    OpCounter,
    ParameterError,
    decrement_mark,
    decrement_trace,
    gen_counterexample,
    nmin_oracle,
    satisfies_doerfler,
)
from dmark.decrement import sweep_limit
from test_quickmark import boundary_instance


def test_hand_executed_example():
    # sweep 1 at threshold 2 selects index 0 (sum 4 < 5), skips 2 (not strictly
    # above), selects 3 (sum 7 >= 5): the output is {0, 3}, not {0, 2}
    out = decrement_mark([4, 1, 2, 3], 0.5, 0.5)
    assert out.marked.tolist() == [0, 3]
    assert out.cardinality == 2


def test_counterexample_instance_cardinality():
    x, spec = gen_counterexample(1, 0.5, 0.5)
    out = decrement_mark(x, 0.5, 0.5)
    assert out.cardinality == 9
    assert nmin_oracle(x, 0.5) == 4


def test_constant_vector_marks_ceil_theta_n():
    for n, theta in [(8, 0.5), (10, 0.3), (7, 0.75)]:
        out = decrement_mark([3.0] * n, theta, 0.5)
        assert out.cardinality == math.ceil(theta * n)


def test_output_satisfies_criterion(rng):
    for _ in range(150):
        vals = rng.random(int(rng.integers(1, 150)))
        if not vals.any():
            vals[0] = 1.0
        theta = float(rng.uniform(0.05, 0.95))
        nu = float(rng.choice([0.3, 0.5, 0.7, 0.9]))
        out = decrement_mark(vals, theta, nu)
        assert satisfies_doerfler(vals, theta, out.marked)


def test_cost_bound(rng):
    # comparison count stays within 4 * N * ceil(1/nu)
    for nu in (0.3, 0.5, 0.9):
        limit = sweep_limit(nu)
        for _ in range(30):
            n = int(rng.integers(1, 400))
            vals = rng.random(n)
            if not vals.any():
                vals[0] = 1.0
            counter = OpCounter()
            decrement_mark(vals, 0.6, nu, counter=counter)
            assert 0 < counter.comparisons <= 4 * n * limit


def test_sweep_limit_is_exact_on_binary_value():
    assert sweep_limit(0.5) == 2
    assert sweep_limit(0.1) == 10  # float(0.1) > 1/10, so ceil(1/nu) is still 10
    assert sweep_limit(0.3) == 4


def test_not_quasi_minimal_on_witness_family():
    for c in (1, 2, 3):
        x, spec = gen_counterexample(c, 0.5, 0.5)
        out = decrement_mark(x, 0.5, 0.5)
        assert out.cardinality > c * nmin_oracle(x, 0.5)
        assert out.cardinality >= c * spec.R + 2


def test_trace_state_invariants(rng):
    for _ in range(40):
        vals = rng.random(int(rng.integers(1, 120)))
        if not vals.any():
            vals[0] = 1.0
        nu = float(rng.choice([0.3, 0.5, 0.7]))
        state = decrement_trace(vals, 0.5, nu)
        selection = state.outcome.marked
        assert len(set(selection.tolist())) == state.outcome.cardinality
        assert np.array_equal(selection, decrement_mark(vals, 0.5, nu).marked)
        assert 1 <= state.sweeps_used <= sweep_limit(nu)
        expected = float(vals[selection].sum())
        assert state.outcome.achieved_sum == pytest.approx(expected, rel=1e-12)


def test_counted_path_matches_plain(rng):
    for _ in range(30):
        vals = rng.random(int(rng.integers(1, 150)))
        if not vals.any():
            vals[0] = 1.0
        counter = OpCounter()
        a = decrement_mark(vals, 0.4, 0.5, counter=counter)
        b = decrement_mark(vals, 0.4, 0.5)
        assert a.marked.tolist() == b.marked.tolist()
        assert counter.comparisons > 0


@pytest.mark.parametrize(
    "seed,n,theta,nu,ties,count",
    [
        (1, 100, 0.5, 0.5, False, 98),
        (2, 1000, 0.3, 0.3, False, 769),
        (3, 500, 0.9, 0.1, False, 2800),
        (4, 2000, 0.6, 0.7, False, 2223),
        (5, 300, 0.5, 0.5, True, 347),
    ],
)
def test_pinned_counts(seed, n, theta, nu, ties, count):
    # literal counts: the per-sweep derivation must equal one count per
    # threshold comparison and one per stop test
    rng = np.random.default_rng(seed)
    vals = rng.choice([0.25, 0.5, 1.0, 2.0], size=n) if ties else rng.random(n)
    counter = OpCounter()
    decrement_mark(vals, theta, nu, counter=counter)
    assert counter.comparisons == count


def test_pinned_counts_on_witness():
    x, _ = gen_counterexample(2, 0.5, 0.5)
    counter = OpCounter()
    decrement_mark(x, 0.5, 0.5, counter=counter)
    assert counter.comparisons == 52


@pytest.mark.parametrize("theta,nu", [(1.0, 0.5), (0.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
def test_parameter_validation(theta, nu):
    with pytest.raises(ParameterError):
        decrement_mark([1.0, 2.0], theta, nu)


def test_sweep_limit_matches_fraction(rng):
    edges = [
        math.nextafter(0.5, 0.0),
        math.nextafter(0.5, 1.0),
        0.1,
        1 / 3,
        2.0**-40,
        math.nextafter(1.0, 0.0),
    ]
    for nu in edges + rng.uniform(0.0, 1.0, 10_000).tolist():
        if nu == 0.0:
            continue
        assert sweep_limit(nu) == math.ceil(Fraction(1) / Fraction(nu)), nu


def _correctly_rounded_sum(values):
    try:
        return math.fsum(values)
    except OverflowError:  # the exact sum exceeds the largest double
        return math.inf


def reference_decrement(x, theta, nu):
    """The per-element sweep loop with the stop test ``fsum(selected) >= v``.

    Returns the selection in order, the sweeps used and the operation count:
    per sweep, the free entries up to the last visited position plus one stop
    test per selection.
    """
    values = np.asarray(x, dtype=np.float64).tolist()
    v = theta * float(np.sum(values))
    m_max = max(values)
    sweeps = sweep_limit(nu)
    selected = [False] * len(values)
    selection = []
    count = 0

    def reached():
        return math.isfinite(v) and _correctly_rounded_sum(values[j] for j in selection) >= v

    for k in range(1, sweeps + 1):
        threshold = (1.0 - k * nu) * m_max
        new = 0
        done = False
        for i, xi in enumerate(values):
            if selected[i]:
                continue
            if xi > threshold:
                selected[i] = True
                selection.append(i)
                new += 1
                if reached():
                    done = True
                    break
        count += (i + 1) - sum(selected[: i + 1]) + 2 * new
        if done:
            return selection, k, count
    return selection, sweeps, count


def _assert_matches_reference(x, theta, nu):
    selection, sweeps_used, count = reference_decrement(x, theta, nu)
    counter = OpCounter()
    out = decrement_mark(x, theta, nu, counter=counter)
    state = decrement_trace(x, theta, nu)
    assert out.marked.tolist() == selection
    assert state.outcome.marked.tolist() == selection
    assert state.sweeps_used == sweeps_used
    assert counter.comparisons == count


@pytest.mark.parametrize("nu", [0.05, 0.3, 0.5, 0.9])
def test_matches_reference_loop(rng, nu):
    # at nu = 0.3 the last threshold is negative, so thetas near 1 select zeros
    for trial in range(60):
        x = instance(rng, int(rng.integers(1, 120)), KINDS[trial % len(KINDS)])
        theta = float(rng.choice([rng.uniform(0.05, 0.95), math.nextafter(1.0, 0.0)]))
        _assert_matches_reference(x, theta, nu)


def test_matches_reference_loop_on_boundary_instances(rng):
    for _ in range(300):
        x, theta = boundary_instance(rng, int(rng.integers(2, 60)))
        _assert_matches_reference(x, theta, 0.5)


def test_exact_fallback_decides_witness(monkeypatch):
    # the witness's float prefix sums land within rounding of the goal 2.5,
    # so the stop is settled by math.fsum; the cardinalities stay 9 and 16
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda values: calls.append(1) or fsum(values))
    for c, cardinality in ((1, 9), (2, 16)):
        x, _ = gen_counterexample(c, 0.5, 0.5)
        calls.clear()
        assert decrement_mark(x, 0.5, 0.5).cardinality == cardinality
        assert calls


@pytest.mark.parametrize("theta", [0.3, 0.45, 0.9])
def test_overflowed_goal_marks_every_positive_entry(theta):
    # the sum overflows, so the goal is inf and no sweep stops
    x = [1e308, 1e308, 1e307]
    try:
        out = decrement_mark(x, theta, 0.5)
        state = decrement_trace(x, theta, 0.5)
    except MarkingError:
        pytest.fail("the overflowed goal is a valid input")
    assert sorted(out.marked.tolist()) == [0, 1, 2]
    assert sorted(state.outcome.marked.tolist()) == [0, 1, 2]


@pytest.mark.parametrize("nu", [0.3, 0.5, 0.9])
def test_counted_cost_is_linear(nu):
    rng = np.random.default_rng(7)
    per_element = []
    for n in (10**3, 10**4, 10**5, 10**6):
        counter = OpCounter()
        decrement_mark(rng.random(n), 0.5, nu, counter=counter)
        per_element.append(counter.comparisons / n)
    assert max(per_element) <= sweep_limit(nu) + 1
    assert max(per_element) / min(per_element) <= 2

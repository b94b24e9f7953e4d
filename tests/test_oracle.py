"""Verification oracles: exhaustive search, minimal-set predicate, witness family."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from dmark import (
    InstanceTooLargeError,
    ParameterError,
    decrement_mark,
    gen_counterexample,
    goal_value,
    is_valid_minimal_set,
    nmin_exhaustive,
    nmin_oracle,
    quickmark,
    sort_mark,
)


class TestNminOracle:
    def test_examples(self):
        assert nmin_oracle([4, 1, 2, 3], 0.5) == 2
        assert nmin_oracle([1, 0, 0], 0.99) == 1

    def test_counterexample_instance(self):
        x, _ = gen_counterexample(1, 0.5, 0.5)
        assert nmin_oracle(x, 0.5) == 4


class TestNminExhaustive:
    def test_examples(self):
        assert nmin_exhaustive([4, 1, 2, 3], 0.5) == 2
        assert nmin_exhaustive([1, 1], 0.6) == 2
        assert nmin_exhaustive([5, 5], 0.5) == 1

    def test_no_reaching_subset_gives_n(self):
        # every doubling sum rounds 1 + 2**-53 back to 1.0, while the goal
        # from the pairwise sum is 1 + 7 ulp, so no subset sum reaches it
        x = [1.0] + [2.0**-53] * 19
        theta = math.nextafter(1.0, 0.0)
        assert goal_value(x, theta) == 1.0 + 7 * 2.0**-52
        assert nmin_exhaustive(x, theta) == 20

    def test_size_cap(self):
        with pytest.raises(InstanceTooLargeError):
            nmin_exhaustive([1.0] * 21, 0.5)

    def test_agrees_with_sorted_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 17))
            vals = rng.random(n)
            if not vals.any():
                vals[0] = 1.0
            for theta in (0.1, 0.5, 0.9):
                assert nmin_exhaustive(vals, theta) == sort_mark(vals, theta).cardinality

    def test_agrees_on_binary_vectors(self):
        for length in range(1, 7):
            for bits in product((0.0, 1.0), repeat=length):
                if not any(bits):
                    continue
                for theta in (0.1, 0.5, 0.9):
                    assert nmin_exhaustive(bits, theta) == sort_mark(bits, theta).cardinality


class TestIsValidMinimalSet:
    def test_examples(self):
        x = [4.0, 1.0, 2.0, 3.0]
        assert is_valid_minimal_set(x, [0, 3], 5.0) is True
        assert is_valid_minimal_set(x, np.array([3, 0]), 5.0) is True
        # removing index 2 still meets the goal, so not removal-minimal
        assert is_valid_minimal_set(x, [0, 2, 3], 5.0) is False
        # members do not dominate the non-member at index 0
        assert is_valid_minimal_set(x, [1, 2], 5.0) is False

    def test_empty_candidate(self):
        assert is_valid_minimal_set([1.0, 2.0], [], 1.0) is False

    def test_underflowed_goal(self):
        # a goal of 0 is reached by one member; a second one is removable
        assert is_valid_minimal_set([5e-324], [0], 0.0) is True
        assert is_valid_minimal_set([5e-324, 5e-324], [0], 0.0) is True
        assert is_valid_minimal_set([5e-324, 5e-324], [0, 1], 0.0) is False

    def test_nan_goal_is_never_met(self):
        # every comparison with NaN is false: no set may pass on that
        assert is_valid_minimal_set([1.0, 2.0], [1], float("nan")) is False
        assert is_valid_minimal_set([1.0, 2.0], [0, 1], float("nan")) is False

    @pytest.mark.parametrize("goal", ["3", None, [3.0], 3.0 + 0j])
    def test_goal_that_is_not_a_real_number_raises_parameter_error(self, goal):
        with pytest.raises(ParameterError, match="v must be a real number"):
            is_valid_minimal_set([1.0, 2.0], [1], goal)

    def test_candidate_outside_range(self):
        with pytest.raises(IndexError):
            is_valid_minimal_set([1.0, 2.0, 3.0], [2, 3], 1.0)
        with pytest.raises(IndexError):
            is_valid_minimal_set([1.0, 2.0, 3.0], [-1], 1.0)

    def test_quickmark_output_passes(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 150))
            vals = rng.random(n)
            if not vals.any():
                vals[0] = 1.0
            theta = float(rng.uniform(0.05, 0.95))
            r = quickmark(vals, theta)
            assert is_valid_minimal_set(vals, r.marked, goal_value(vals, theta))


class TestCounterexampleGenerator:
    def test_frozen_parameters(self):
        x, spec = gen_counterexample(1, 0.5, 0.5)
        assert spec.delta == Fraction(1, 2)
        assert spec.epsilon == Fraction(1, 7)
        assert spec.R == 7
        assert spec.N == 14
        assert len(x) == 14
        assert x.values[0] == 1.0
        assert np.all(x.values[1:8] == float(Fraction(1, 7)))
        assert np.all(x.values[8:] == 0.5)

    def test_chain_of_inequalities(self):
        for c in (1, 2, 3):
            for theta, nu in [(0.5, 0.5), (0.3, 0.5), (0.5, 0.3), (0.7, 0.6)]:
                _, spec = gen_counterexample(c, theta, nu)
                assert spec.chain_holds()

    def test_witness_property(self):
        for c in (1, 2, 3):
            x, spec = gen_counterexample(c, 0.5, 0.5)
            n_marked = decrement_mark(x, 0.5, 0.5).cardinality
            n_min = nmin_oracle(x, 0.5)
            assert n_marked >= c * spec.R + 2
            assert n_marked > c * n_min

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            gen_counterexample(0, 0.5, 0.5)
        with pytest.raises(ParameterError):
            gen_counterexample(1, 1.0, 0.5)
        with pytest.raises(ParameterError):
            gen_counterexample(1, 0.5, 1.0)

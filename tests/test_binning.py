"""Geometric binning: depth, bin boundaries, quasi-minimality and cost."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dmark import (
    OpCounter,
    ParameterError,
    bin_layout,
    binning_depth,
    binning_mark,
    nmin_oracle,
    satisfies_doerfler,
)


class TestDepth:
    def test_uniform_ones(self):
        # bound = 0.5 * 4 / 4 = 0.5; 0.5**1 <= 0.5 already
        assert binning_depth([1, 1, 1, 1], 0.5, 0.5) == 0

    def test_near_boundary(self):
        # bound = 0.5 * (1 + 1e-6) / 2 = 0.25000025; needs 0.25
        assert binning_depth([1, 1e-6], 0.5, 0.5) == 1

    def test_small_bound(self):
        # bound = (1 - 0.9) * 1 / 1 ~ 0.1; 0.5**4 = 0.0625 <= 0.1 < 0.5**3
        assert binning_depth([1.0], 0.9, 0.5) == 3

    def test_theta_one_rejected(self):
        with pytest.raises(ParameterError):
            binning_depth([1.0], 1.0, 0.5)


class TestLayout:
    def test_hand_binned_example(self):
        # ratios 1, 0.25, 0.5, 0.75: ratio 0.5 sits on the boundary and falls
        # into the second bin, 0.25 into the tail
        layout = bin_layout([4, 1, 2, 3], 0.5, 0.5)
        assert layout.depth == 1
        assert set(layout.bins[0].tolist()) == {0, 3}
        assert set(layout.bins[1].tolist()) == {2}
        assert set(layout.bins[2].tolist()) == {1}

    def test_exact_boundary_values(self):
        # ratio exactly nu**k belongs to bin k, exactly nu**(k+1) to bin k+1
        vals = [1.0, 0.5, 0.25, 0.125]
        layout = bin_layout(vals, 0.5, 0.5)
        assert layout.depth == 2
        assert layout.bins[0].tolist() == [0]
        assert layout.bins[1].tolist() == [1]
        assert layout.bins[2].tolist() == [2]
        assert layout.bins[3].tolist() == [3]

    def test_bins_partition_indices(self, rng):
        for _ in range(30):
            vals = rng.random(int(rng.integers(1, 200)))
            if not vals.any():
                vals[0] = 1.0
            layout = bin_layout(vals, 0.5, 0.5)
            combined = np.concatenate(layout.bins)
            assert sorted(combined.tolist()) == list(range(len(vals)))

    def test_earlier_bins_strictly_exceed_later(self, rng):
        for _ in range(30):
            vals = rng.choice([0.0, 0.1, 0.2, 0.5, 0.9, 1.0], size=60)
            if not vals.any():
                vals[0] = 1.0
            layout = bin_layout(vals, 0.3, 0.5)
            nonempty = [b for b in layout.bins if b.size]
            for earlier, later in zip(nonempty, nonempty[1:]):
                assert vals[earlier].min() > vals[later].max()

    def test_deep_layout_matches_bin_definition(self, rng):
        # nu close to 1 over 6 decades gives more than 255 bins, so the bin
        # labels need 16 bits; each bin still holds exactly its ratio range,
        # in ascending index order
        nu = 0.995
        vals = 10.0 ** rng.uniform(-6.0, 0.0, 400)
        layout = bin_layout(vals, 0.5, nu)
        assert layout.depth > 255
        ratios = vals / vals.max()
        powers = [1.0]
        for _ in range(layout.depth + 1):
            powers.append(powers[-1] * nu)
        for k in range(layout.depth + 1):
            inside = (ratios > powers[k + 1]) & (ratios <= powers[k])
            assert np.array_equal(layout.bins[k], np.flatnonzero(inside))
        tail = np.flatnonzero(ratios <= powers[-1])
        assert np.array_equal(layout.bins[-1], tail)

    def test_within_bin_ascending_index(self, rng):
        vals = rng.random(100)
        layout = bin_layout(vals, 0.5, 0.5)
        for b in layout.bins:
            assert np.all(np.diff(b) > 0) or b.size <= 1


class TestBinningMark:
    def test_example(self):
        out = binning_mark([4, 1, 2, 3], 0.5, 0.5)
        assert out.marked_set == {0, 3}
        assert out.cardinality == 2

    def test_all_equal(self):
        out = binning_mark([2, 2, 2, 2], 0.5, 0.5)
        assert out.cardinality == 2
        assert out.marked_set == {0, 1}

    def test_satisfies_and_quasi_minimal(self, rng):
        # 100 seeded uniform instances at N=1000
        for _ in range(100):
            vals = rng.random(1000)
            out = binning_mark(vals, 0.25, 0.5)
            assert satisfies_doerfler(vals, 0.25, out.marked)
            bound = math.ceil(Fraction(nmin_oracle(vals, 0.25)) / Fraction(0.5))
            assert out.cardinality <= bound

    def test_quasi_minimal_various_nu(self, rng):
        for _ in range(60):
            vals = rng.random(int(rng.integers(1, 400)))
            if not vals.any():
                vals[0] = 1.0
            theta = float(rng.uniform(0.05, 0.95))
            for nu in (0.3, 0.5, 0.7):
                out = binning_mark(vals, theta, nu)
                assert satisfies_doerfler(vals, theta, out.marked)
                bound = math.ceil(Fraction(nmin_oracle(vals, theta)) / Fraction(nu))
                assert out.cardinality <= bound

    def test_cost_bound(self, rng):
        # comparisons within 8 * (N + K)
        for _ in range(40):
            n = int(rng.integers(1, 500))
            vals = rng.random(n)
            if not vals.any():
                vals[0] = 1.0
            theta = float(rng.uniform(0.05, 0.95))
            counter = OpCounter()
            binning_mark(vals, theta, 0.5, counter)
            depth = binning_depth(vals, theta, 0.5)
            assert 0 < counter.comparisons <= 8 * (n + depth)

    def test_counted_path_matches_fast(self, rng):
        for _ in range(30):
            vals = rng.random(int(rng.integers(1, 200)))
            if not vals.any():
                vals[0] = 1.0
            counter = OpCounter()
            counted = binning_mark(vals, 0.6, 0.5, counter)
            fast = binning_mark(vals, 0.6, 0.5)
            assert np.array_equal(counted.marked, fast.marked)

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 5000, 70000])
    @pytest.mark.parametrize("theta", [0.05, 0.5, 0.97, math.nextafter(1.0, 0.0)])
    def test_cut_equals_whole_concatenation_prefix(self, rng, n, theta):
        # reference: one cumsum over the whole bin concatenation, cut at the
        # first prefix that reaches the goal, all of it when none does
        for vals in (rng.random(n), rng.lognormal(0.0, 2.5, n)):
            layout = bin_layout(vals, theta, 0.5)
            concatenated = np.concatenate(layout.bins)
            prefix = np.cumsum(vals[concatenated])
            cut = int(np.searchsorted(prefix, theta * np.sum(vals), side="left"))
            expected = concatenated[: min(cut, n - 1) + 1]
            assert np.array_equal(binning_mark(vals, theta, 0.5).marked, expected)

    @pytest.mark.parametrize(
        "seed,n,theta,nu,kind,depth,count",
        [
            (11, 100, 0.5, 0.5, "uniform", 2, 234),
            (12, 1000, 0.3, 0.3, "uniform", 0, 1219),
            (13, 2000, 0.9, 0.7, "uniform", 8, 7854),
            (14, 500, 0.6, 0.5, "ties", 2, 1147),
            # 16-bit bin labels
            (15, 1000, 0.5, 0.99, "decades", 405, 9403),
        ],
    )
    def test_pinned_counts(self, seed, n, theta, nu, kind, depth, count):
        # literal counts: the bisection-step table must equal one count per
        # comparison of a per-element bisection, plus depth steps and the cut
        rng = np.random.default_rng(seed)
        if kind == "ties":
            vals = rng.choice([0.25, 0.5, 1.0, 2.0], size=n)
        elif kind == "decades":
            vals = 10.0 ** rng.uniform(-12.0, 0.0, n)
        else:
            vals = rng.random(n)
        assert binning_depth(vals, theta, nu) == depth
        counter = OpCounter()
        binning_mark(vals, theta, nu, counter)
        assert counter.comparisons == count

"""Geometric binning: depth, bin boundaries, quasi-minimality and cost."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KINDS, instance
from dmark import (
    OpCounter,
    ParameterError,
    bin_layout,
    binning_mark,
    nmin_oracle,
    satisfies_doerfler,
)
from dmark import binning
from dmark.binning import MAX_DEPTH, _powers
from dmark.core import IndicatorVector
from test_decrement import _correctly_rounded_sum
from test_quickmark import boundary_instance


def _bins(layout):
    """The indices of each bin, tail last, in ascending index order."""
    return [np.flatnonzero(layout.labels == k) for k in range(layout.depth + 2)]


class TestDepth:
    def test_uniform_ones(self):
        # bound = 0.5 * 4 / 4 = 0.5; 0.5**1 <= 0.5 already
        assert bin_layout([1, 1, 1, 1], 0.5, 0.5).depth == 0

    def test_near_boundary(self):
        # bound = 0.5 * (1 + 1e-6) / 2 = 0.25000025; needs 0.25
        assert bin_layout([1, 1e-6], 0.5, 0.5).depth == 1

    def test_small_bound(self):
        # bound = (1 - 0.9) * 1 / 1 ~ 0.1; 0.5**4 = 0.0625 <= 0.1 < 0.5**3
        assert bin_layout([1.0], 0.9, 0.5).depth == 3

    def test_theta_one_rejected(self):
        with pytest.raises(ParameterError):
            bin_layout([1.0], 1.0, 0.5)

    @pytest.mark.parametrize(
        "x,theta,nu",
        [
            # the bound underflows to 0: the powers would run until
            # nu**k * 5e-324 rounds to 0, about 6e11 of them
            ([5e-324], 0.5, 1 - 1.18e-12),
            ([1.0, 0.5, 0.25], 0.5, 1 - 2**-53),
            ([3.0, 1.0, 0.0], 0.3, 1 - 2**-53),
        ],
    )
    def test_too_many_bins_raise_at_once(self, x, theta, nu):
        for call in (bin_layout, binning_mark):
            start = time.perf_counter()
            with pytest.raises(ParameterError, match="bins"):
                call(x, theta, nu)
            assert time.perf_counter() - start < 1.0

    def test_depth_up_to_the_cap(self):
        # bound 0.25: K = ceil(log(0.25) / log(nu)) - 1 bins below the cap
        nu = 0.25 ** (1.0 / (MAX_DEPTH - 1000))
        assert MAX_DEPTH - 1002 <= bin_layout([1.0, 1e-300], 0.5, nu).depth <= MAX_DEPTH
        with pytest.raises(ParameterError):
            bin_layout([1.0, 1e-300], 0.5, 0.25 ** (1.0 / (MAX_DEPTH + 1000)))


def _loop_powers(iv, theta, nu):
    """The power table by one multiplication per bin, as the definition reads."""
    bound = (1.0 - theta) * iv._sum / iv.n
    powers = [1.0, nu]
    while powers[-1] * iv._max > bound:
        powers.append(powers[-1] * nu)
    return np.array(powers)


class TestPowers:
    @pytest.mark.parametrize(
        "x,theta,nu",
        [
            (np.random.default_rng(41).random(1000), 0.5, 0.5),
            (np.random.default_rng(42).lognormal(0.0, 2.5, 1000), 0.9, 0.9),
            # 916,292 and 700,618 powers, and one within a few of the cap
            (np.array([1.0, 0.6]), 0.5, 1 - 1e-6),
            (1.0 + 1e-4 * np.random.default_rng(43).random(1000), 1e-3, 1 - 1.5e-9),
            (np.array([1.0, 1e-300]), 0.5, 0.25 ** (1.0 / (MAX_DEPTH - 1000))),
            # the bound underflows to 0
            (np.array([5e-324, 0.0, 0.0, 0.0]), 0.5, 0.5),
        ],
    )
    def test_match_the_loop_bitwise(self, x, theta, nu):
        iv = IndicatorVector(x)
        assert np.array_equal(_powers(iv, theta, nu), _loop_powers(iv, theta, nu))

    @pytest.mark.parametrize("predicted", [0, 19])
    def test_a_missed_prediction_searches_the_table(self, predicted, monkeypatch):
        # the bound 2**-1076 rounds to 0, so half the smallest subnormal
        # predicts the depth, 15: 2**-15 * 2**-1060 rounds to 0 (ties to
        # even); a prediction of 0 leaves the first table short, and one of
        # 19 runs past the first power at the bound
        x = np.array([2.0**-1060, 0.0, 0.0, 0.0])
        theta = 1.0 - 2.0**-14
        iv = IndicatorVector(x)
        expected = _loop_powers(iv, theta, 0.5)
        assert expected.size == 16
        log_half_subnormal = math.log(2.0**-1060) + (predicted + 0.5) * math.log(0.5)
        monkeypatch.setattr(binning, "_LOG_HALF_SUBNORMAL", log_half_subnormal)
        assert np.array_equal(_powers(iv, theta, 0.5), expected)
        assert bin_layout(x, theta, 0.5).depth == expected.size - 2


class TestLayout:
    def test_hand_binned_example(self):
        # ratios 1, 0.25, 0.5, 0.75: ratio 0.5 sits on the boundary and falls
        # into the second bin, 0.25 into the tail
        layout = bin_layout([4, 1, 2, 3], 0.5, 0.5)
        assert layout.depth == 1
        assert set(np.flatnonzero(layout.labels == 0).tolist()) == {0, 3}
        assert set(np.flatnonzero(layout.labels == 1).tolist()) == {2}
        assert set(np.flatnonzero(layout.labels == 2).tolist()) == {1}

    def test_exact_boundary_values(self):
        # ratio exactly nu**k belongs to bin k, exactly nu**(k+1) to bin k+1
        vals = [1.0, 0.5, 0.25, 0.125]
        layout = bin_layout(vals, 0.5, 0.5)
        assert layout.depth == 2
        assert np.flatnonzero(layout.labels == 0).tolist() == [0]
        assert np.flatnonzero(layout.labels == 1).tolist() == [1]
        assert np.flatnonzero(layout.labels == 2).tolist() == [2]
        assert np.flatnonzero(layout.labels == 3).tolist() == [3]

    def test_bins_partition_indices(self, rng):
        for _ in range(30):
            vals = rng.random(int(rng.integers(1, 200)))
            if not vals.any():
                vals[0] = 1.0
            layout = bin_layout(vals, 0.5, 0.5)
            combined = np.concatenate(_bins(layout))
            assert sorted(combined.tolist()) == list(range(len(vals)))

    def test_earlier_bins_strictly_exceed_later(self, rng):
        for _ in range(30):
            vals = rng.choice([0.0, 0.1, 0.2, 0.5, 0.9, 1.0], size=60)
            if not vals.any():
                vals[0] = 1.0
            layout = bin_layout(vals, 0.3, 0.5)
            nonempty = [b for b in _bins(layout) if b.size]
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
            assert np.array_equal(np.flatnonzero(layout.labels == k), np.flatnonzero(inside))
        tail = np.flatnonzero(ratios <= powers[-1])
        assert np.array_equal(np.flatnonzero(layout.labels == layout.depth + 1), tail)

    @pytest.mark.parametrize("nu", [5e-324, 1e-300, 0.01, 0.1, 0.3, 0.5, 0.9, 0.99, 0.999])
    @pytest.mark.parametrize("m_max", [1.0, 3.0, 7e-300, 1.5e300])
    def test_labels_match_linear_scan_at_boundaries(self, rng, nu, m_max):
        # entries max * nu**k and their one-ulp neighbours, zeros and
        # subnormal ratios; every ratio sits on or next to a bin boundary, so
        # the estimates of most entries fall within rounding of an integer.
        # Below nu = 1e-185 the middle of the tail bin underflows.  A
        # RuntimeWarning (log of 0) fails the test.
        powers = [1.0]
        while powers[-1] > 1e-30:
            powers.append(powers[-1] * nu)
        ks = set(range(min(40, len(powers)))) | set(rng.integers(0, len(powers), 150).tolist())
        vals = [m_max, 0.0, 0.0, 5e-324, m_max * 1e-310, m_max * 2.0**-1060]
        for k in sorted(ks):
            v = m_max * powers[k]
            vals += [v, math.nextafter(v, 0.0), min(math.nextafter(v, math.inf), m_max)]
        x = np.array(vals)[rng.permutation(len(vals))]
        layout = bin_layout(x, 0.9, nu)
        if nu >= 0.99:
            assert layout.depth > 255 and layout.labels.dtype == np.uint16
        assert layout.labels.tolist() == scan_labels(x, 0.9, nu)

    def test_labels_match_linear_scan_when_nu_is_nearly_one(self, rng):
        # bins a few ulps wide: the powers of nu drift across whole bins, so
        # the logarithm cannot place a ratio within one bin
        deep = 0
        for _ in range(60):
            gap = float(10.0 ** rng.uniform(-15.0, -12.0))
            spread = gap * float(rng.uniform(1.0, 40.0))
            x = 1.0 - rng.uniform(0.0, spread, int(rng.integers(2, 200)))
            theta = float(rng.uniform(1e-16, spread))
            layout = bin_layout(x, theta, 1.0 - gap)
            deep += layout.depth > 0
            assert layout.labels.tolist() == scan_labels(x, theta, 1.0 - gap)
        assert deep > 30

    def test_within_bin_ascending_index(self, rng):
        vals = rng.random(100)
        layout = bin_layout(vals, 0.5, 0.5)
        for b in _bins(layout):
            assert np.all(np.diff(b) > 0) or b.size <= 1


class TestBinningMark:
    def test_example(self):
        out = binning_mark([4, 1, 2, 3], 0.5, 0.5)
        assert set(out.marked.tolist()) == {0, 3}
        assert out.cardinality == 2

    def test_all_equal(self):
        out = binning_mark([2, 2, 2, 2], 0.5, 0.5)
        assert out.cardinality == 2
        assert set(out.marked.tolist()) == {0, 1}

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
            depth = bin_layout(vals, theta, 0.5).depth
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

    def test_count_per_element_independent_of_depth(self, rng):
        # a bisection of the K + 1 boundaries costs log2(K + 2) comparisons
        # per element; labelling from the logarithm costs the same at depth
        # 2 as at depth ~400
        n = 20000
        counts = {}
        for nu, vals in ((0.5, rng.random(n)), (0.99, 10.0 ** rng.uniform(-12.0, 0.0, n))):
            counter = OpCounter()
            binning_mark(vals, 0.5, nu, counter)
            counts[nu] = (bin_layout(vals, 0.5, nu).depth, counter.comparisons / n)
        (shallow, per_shallow), (deep, per_deep) = counts[0.5], counts[0.99]
        assert shallow == 2 and deep > 380
        assert per_deep <= per_shallow + 0.1

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 5000, 70000])
    @pytest.mark.parametrize("theta", [0.05, 0.5, 0.97, math.nextafter(1.0, 0.0)])
    def test_cut_equals_whole_concatenation_prefix(self, rng, n, theta):
        # reference: one cumsum over the whole bin concatenation, cut at the
        # first prefix that reaches the goal, all of it when none does; the
        # marked set is ascending, not in concatenation order
        for vals in (rng.random(n), rng.lognormal(0.0, 2.5, n)):
            layout = bin_layout(vals, theta, 0.5)
            concatenated = np.concatenate(_bins(layout))
            prefix = np.cumsum(vals[concatenated])
            cut = int(np.searchsorted(prefix, theta * np.sum(vals), side="left"))
            expected = concatenated[: min(cut, n - 1) + 1]
            assert np.array_equal(binning_mark(vals, theta, 0.5).marked, np.sort(expected))

    @pytest.mark.parametrize(
        "seed,n,theta,nu,kind,depth,count",
        [
            (11, 100, 0.5, 0.5, "uniform", 2, 234),
            (12, 1000, 0.3, 0.3, "uniform", 0, 2219),
            (13, 2000, 0.9, 0.7, "uniform", 8, 5382),
            (14, 500, 0.6, 0.5, "ties", 2, 1508),
            # 16-bit bin labels
            (15, 1000, 0.5, 0.99, "decades", 405, 2430),
        ],
    )
    def test_pinned_counts(self, seed, n, theta, nu, kind, depth, count):
        # literal counts: the depth steps, an estimate and a near test per
        # element, one comparison per near element, and the cut
        rng = np.random.default_rng(seed)
        if kind == "ties":
            vals = rng.choice([0.25, 0.5, 1.0, 2.0], size=n)
        elif kind == "decades":
            vals = 10.0 ** rng.uniform(-12.0, 0.0, n)
        else:
            vals = rng.random(n)
        assert bin_layout(vals, theta, nu).depth == depth
        counter = OpCounter()
        binning_mark(vals, theta, nu, counter)
        assert counter.comparisons == count


# two significant digits over six decades, as in boundary_instance
two_digit_values = st.builds(
    lambda m, e: float(f"{m}e{e}"), st.integers(10, 99), st.integers(-7, -1)
)


def scan_labels(x, theta, nu):
    """Bin label of every entry by a linear scan of the powers of ``nu``."""
    values = np.asarray(x, dtype=np.float64).tolist()
    m_max = max(values)
    depth = bin_layout(x, theta, nu).depth
    powers = [1.0]
    for _ in range(depth + 1):
        powers.append(powers[-1] * nu)

    def label(value):
        ratio = value / m_max
        return next((k for k in range(depth + 1) if ratio > powers[k + 1]), depth + 1)

    return [label(value) for value in values]


def reference_binning(x, theta, nu):
    """Walk the bins in order, each in index order, up to the first prefix
    whose correctly rounded sum reaches the goal; all indices when none does.

    Bins come from :func:`scan_labels`, not from logarithms.
    """
    values = np.asarray(x, dtype=np.float64).tolist()
    v = theta * float(np.sum(values))
    labels = scan_labels(x, theta, nu)
    walk = sorted(range(len(values)), key=lambda i: (labels[i], i))
    for stop in range(1, len(walk) + 1):
        if _correctly_rounded_sum(values[i] for i in walk[:stop]) >= v:
            return sorted(walk[:stop])
    return list(range(len(values)))


class TestReferenceWalk:
    def test_matches_reference_on_random_instances(self, rng):
        for trial in range(200):
            x = instance(rng, int(rng.integers(1, 150)), KINDS[trial % len(KINDS)])
            theta = float(rng.choice([rng.uniform(0.05, 0.95), math.nextafter(1.0, 0.0)]))
            nu = float(rng.choice([0.1, 0.3, 0.5, 0.9]))
            assert binning_mark(x, theta, nu).marked.tolist() == reference_binning(x, theta, nu)

    def test_matches_reference_on_boundary_instances(self, rng):
        for _ in range(300):
            x, theta = boundary_instance(rng, int(rng.integers(2, 60)))
            assert binning_mark(x, theta, 0.5).marked.tolist() == reference_binning(x, theta, 0.5)

    @given(
        st.lists(two_digit_values, min_size=1, max_size=6).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=80)
        ),
        st.integers(1, 80),
        st.sampled_from([None, 0.0, math.inf]),
        st.sampled_from([0.1, 0.3, 0.5, 0.9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_ties(self, xs, k, toward, nu):
        # theta on the ratio of a descending prefix or one ulp off, where the
        # walk's sums sit within rounding of the goal
        x = np.array(xs)
        theta = float(np.sum(np.sort(x)[::-1][:k]) / np.sum(x))
        if toward is not None:
            theta = math.nextafter(theta, toward)
        theta = min(theta, math.nextafter(1.0, 0.0))
        assert binning_mark(x, theta, nu).marked.tolist() == reference_binning(x, theta, nu)

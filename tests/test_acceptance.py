"""End-to-end acceptance gate.

Each test exercises one guarantee of the package at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
Timing budgets are asserted as well; they are generous on desk hardware.
"""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np

from dmark import (
    IndicatorVector,
    OpCounter,
    binning_mark,
    decrement_mark,
    gen_counterexample,
    mark,
    mark_theta_one,
    nmin_exhaustive,
    quickmark,
    satisfies_doerfler,
    sort_mark,
    xstar_kernel,
)

from conftest import KINDS, instance

THETAS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def _suite_instances(rng, count, n_max):
    """The shared randomized suite: uniform, tie-heavy, sparse and integer vectors."""
    for trial in range(count):
        n = int(rng.integers(1, n_max + 1))
        kind = KINDS[trial % len(KINDS)]
        theta = THETAS[trial % len(THETAS)]
        yield instance(rng, n, kind), theta


def test_minimality_equivalence():
    # selection-based cardinality equals the sorted-prefix minimum, exactly,
    # and every output satisfies the criterion
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    ok = True
    try:
        for vals, theta in _suite_instances(rng, 10_000, 5000):
            r = quickmark(vals, theta)
            n_sort = sort_mark(vals, theta).cardinality
            assert r.cardinality == n_sort, (checked, r.cardinality, n_sort, theta)
            assert satisfies_doerfler(vals, theta, r.marked)
            checked += 1
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - t0
        _report(
            "minimality-equivalence",
            ok and checked == 10_000,
            f"({checked} instances, {elapsed:.1f}s)",
        )
    assert elapsed < 60.0


def test_oracle_self_validation():
    # brute-force subset enumeration agrees with the sorted-prefix oracle
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    ok = True
    try:
        for _ in range(200):
            n = int(rng.integers(1, 17))
            kind = KINDS[checked % len(KINDS)]
            vals = instance(rng, n, kind)
            for theta in (0.1, 0.5, 0.9):
                assert nmin_exhaustive(vals, theta) == sort_mark(vals, theta).cardinality
            checked += 1
        for length in range(1, 9):
            for bits in product((0.0, 1.0), repeat=length):
                if not any(bits):
                    continue
                for theta in (0.1, 0.5, 0.9):
                    assert nmin_exhaustive(bits, theta) == sort_mark(bits, theta).cardinality
                checked += 1
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - t0
        _report("oracle-self-validation", ok, f"({checked} vectors, {elapsed:.1f}s)")
    assert elapsed < 30.0


def test_threshold_invariance():
    # x* is bitwise identical between quickmark and xstar_kernel
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    checked = 0
    ok = True
    try:
        for vals, theta in _suite_instances(rng, 1000, 400):
            assert quickmark(vals, theta).threshold == xstar_kernel(vals.copy(), theta), checked
            checked += 1
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - t0
        _report("threshold-invariance", ok, f"({checked} instances, {elapsed:.1f}s)")
    assert elapsed < 30.0


def test_binning_cardinality_bound():
    # binning stays within ceil(N_min / nu) for every tested nu
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    checked = 0
    ok = True
    try:
        for vals, theta in _suite_instances(rng, 1000, 600):
            n_min = sort_mark(vals, theta).cardinality
            for nu in (0.3, 0.5, 0.7):
                out = binning_mark(vals, theta, nu)
                bound = math.ceil(Fraction(n_min) / Fraction(nu))
                assert out.cardinality <= bound, (checked, nu, out.cardinality, bound)
                assert satisfies_doerfler(vals, theta, out.marked)
            checked += 1
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - t0
        _report("binning-cardinality-bound", ok, f"({checked} instances, {elapsed:.1f}s)")
    assert elapsed < 30.0


def test_decrement_counterexample():
    # the witness family reproduces exactly: derived parameters and counts
    t0 = time.perf_counter()
    ok = True
    try:
        x, spec = gen_counterexample(1, 0.5, 0.5)
        assert spec.delta == Fraction(1, 2)
        assert spec.epsilon == Fraction(1, 7)
        assert spec.R == 7
        assert spec.N == 14
        marked = decrement_mark(x, 0.5, 0.5).cardinality
        n_min = sort_mark(x, 0.5).cardinality
        assert marked == 9
        assert n_min == 4
        assert marked > 1 * n_min
        for c in (1, 2, 3):
            xc, spec_c = gen_counterexample(c, 0.5, 0.5)
            mc = decrement_mark(xc, 0.5, 0.5).cardinality
            nc = sort_mark(xc, 0.5).cardinality
            assert mc >= c * spec_c.R + 2
            assert mc > c * nc
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - t0
        _report("decrement-counterexample", ok, f"({elapsed:.2f}s)")
    assert elapsed < 1.0


def test_linear_cost_scaling():
    # counted comparisons per element: flat for the selection strategy
    # (max/min ratio <= 2 across three decades), strictly increasing for the
    # sort strategy; wall-clock per-element growth of mark() orders the
    # same way
    t0 = time.perf_counter()
    sizes = (10**3, 10**4, 10**5, 10**6)
    ok = True
    try:
        qm_per_el = []
        sort_per_el = []
        vectors = {}
        for i, n in enumerate(sizes):
            vals = np.random.default_rng(1000 + i).random(n)
            vectors[n] = IndicatorVector(vals)
            counter = OpCounter()
            quickmark(vals, 0.5, counter=counter)
            qm_per_el.append(counter.comparisons / n)
            counter = OpCounter()
            sort_mark(vals, 0.5, counter)
            sort_per_el.append(counter.comparisons / n)
        assert max(qm_per_el) / min(qm_per_el) <= 2.0, qm_per_el
        assert all(a < b for a, b in zip(sort_per_el, sort_per_el[1:])), sort_per_el

        # qualitative shape of the measured times, best of three calls on a
        # prebuilt vector: sorting grows strictly more per element than
        # selection does
        def seconds_per_element(algorithm, n):
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                mark(vectors[n], 0.5, algorithm)
                best = min(best, time.perf_counter() - start)
            return best / n

        growth = {
            alg: seconds_per_element(alg, 10**6) / seconds_per_element(alg, 10**3)
            for alg in ("sort", "quickmark")
        }
        sort_growth, qm_growth = growth["sort"], growth["quickmark"]
        assert sort_growth > qm_growth, (sort_growth, qm_growth)
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - t0
        _report(
            "linear-cost-scaling",
            ok,
            f"(selection per-element counts {qm_per_el}, {elapsed:.1f}s)",
        )
    assert elapsed < 120.0


def test_partition_admissibility_checks():
    # the randomized suite capped at N=500 with every internal re-verification
    # enabled: zero violations
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    checked = 0
    ok = True
    try:
        for vals, theta in _suite_instances(rng, 10_000, 500):
            quickmark(vals, theta, check_invariants=True)
            checked += 1
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - t0
        _report(
            "partition-admissibility-checks",
            ok and checked == 10_000,
            f"({checked} instances, {elapsed:.1f}s)",
        )
    assert elapsed < 60.0


def test_theta_one_support():
    # theta = 1 marks exactly the positive support
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    ok = True
    try:
        for _ in range(100):
            n = int(rng.integers(1, 300))
            vals = instance(rng, n, "sparse")
            out = mark_theta_one(vals)
            assert set(out.marked.tolist()) == set(np.flatnonzero(vals > 0).tolist())
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - t0
        _report("theta-one-support", ok, f"(100 instances, {elapsed:.2f}s)")
    assert elapsed < 1.0

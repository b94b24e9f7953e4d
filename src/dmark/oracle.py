"""Independent verification machinery.

Provides the minimal-cardinality oracle, a brute-force subset-enumeration
oracle for small instances, the minimal-set membership predicate (whose
body, ``core._is_minimal``, also checks the selection kernel's cut), and a
generator for the witness family on which threshold-decrement marking
exceeds any fixed multiple of the minimal cardinality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .core import (
    IndicatorInput,
    IndicatorVector,
    InstanceTooLargeError,
    MarkingError,
    ParameterError,
    _REAL,
    _is_minimal,
    as_indicators,
    check_nu,
    check_theta,
)
from .quickmark import sort_mark

__all__ = [
    "EXHAUSTIVE_MAX_N",
    "nmin_oracle",
    "nmin_exhaustive",
    "is_valid_minimal_set",
    "CounterexampleSpec",
    "gen_counterexample",
]

# 2**20 subset sums stay comfortably below a second
EXHAUSTIVE_MAX_N = 20


def nmin_oracle(x: IndicatorInput, theta: float) -> int:
    """Minimal cardinality of a criterion-satisfying set, by :func:`sort_mark`,
    whose cut is the shared stop rule (float prefix sums above
    ``quickmark._EXACT_MAX`` entries)."""
    return sort_mark(x, theta).cardinality


def nmin_exhaustive(x: IndicatorInput, theta: float) -> int:
    """Minimal cardinality by enumerating all subsets; N <= 20 only.

    Independent of any sorting: subset sums of the working entries are
    built by doubling over the elements in original order and compared with
    ``theta`` times their sum.  Used to validate the sorted-cut oracle
    itself.
    """
    iv = as_indicators(x)
    theta = check_theta(theta)
    if iv.n > EXHAUSTIVE_MAX_N:
        raise InstanceTooLargeError(
            f"exhaustive search is capped at N={EXHAUSTIVE_MAX_N}, got N={iv.n}"
        )
    v = iv._goal(theta)
    sums = np.zeros(1, dtype=np.float64)
    sizes = np.zeros(1, dtype=np.int64)
    for xi in iv._work:
        sums = np.concatenate((sums, sums + xi))
        sizes = np.concatenate((sizes, sizes + 1))
    feasible = sums >= v
    if not feasible.any():
        # reachable only through last-ulp shortfall of the full-set sum
        return iv.n
    return int(sizes[feasible].min())


def is_valid_minimal_set(
    x: IndicatorInput,
    marked: Iterable[int],
    v: float,
) -> bool:
    """Membership test for the family of minimal sets of goal ``v``.

    ``marked`` holds original indices; duplicates collapse.  True iff every
    member dominates every non-member and the member sum reaches ``v`` while
    dropping any single member falls below it.  Comparisons of sums use the
    criterion tolerance.  An empty set is never valid, so a single member
    that reaches ``v`` is removal-minimal, also when ``v`` underflows to 0;
    an index out of range raises :class:`IndexError`, and a ``v`` that is
    not a real number or lies beyond the doubles :class:`ParameterError`; no
    sum reaches a NaN ``v``.
    """
    iv = as_indicators(x)
    if not isinstance(v, _REAL):
        raise ParameterError(f"v must be a real number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:
        raise ParameterError("v lies beyond the range of a double") from None
    return _is_minimal(iv, marked, v / iv._scale)


@dataclass(frozen=True)
class CounterexampleSpec:
    """Parameters of one witness instance, derived in exact rational arithmetic.

    The vector is ``(1, eps, ..., eps, delta, ..., delta)`` with ``C*R`` eps
    entries and ``R - 1`` delta entries; ``delta`` and ``eps`` are exact unit
    fractions so the strict inequalities of the construction survive the
    conversion to floats.
    """

    C: int
    theta: float
    nu: float
    delta: Fraction
    epsilon: Fraction
    R: int
    N: int

    def chain_holds(self) -> bool:
        """Exact check of 0 < eps < delta <= 1 - nu * (ceil(1/nu) - 1)."""
        nv = Fraction(self.nu)
        upper = 1 - nv * (math.ceil(1 / nv) - 1)
        return 0 < self.epsilon < self.delta <= upper


def gen_counterexample(
    C: int, theta: float, nu: float
) -> tuple[IndicatorVector, CounterexampleSpec]:
    """Witness family: decrement marking yields more than ``C * N_min`` indices.

    One dominant entry, a long run of tiny entries and a short run of
    mid-sized entries are sized so that no entry but the first passes any
    threshold before the final sweep; the final sweep then drags in the whole
    tiny run before the goal is reached, while the minimal set needs only the
    dominant entry plus the mid-sized run.
    """
    if not (isinstance(C, int) and C >= 1):
        raise ParameterError(f"C must be a positive integer, got {C!r}")
    theta = check_theta(theta)
    nu = check_nu(nu)

    th = Fraction(theta)
    nv = Fraction(nu)
    inner = 1 - nv * (math.ceil(1 / nv) - 1)
    delta = Fraction(1, math.ceil(1 / inner))
    q = math.ceil((2 - th) / th)
    R = q * int(1 / delta) + 1
    N = (C + 1) * R
    epsilon = Fraction(1, C * R) * min(Fraction(1), (1 - th) * (1 + q) / th)

    spec = CounterexampleSpec(
        C=C, theta=theta, nu=nu, delta=delta, epsilon=epsilon, R=R, N=N
    )
    if not spec.chain_holds():
        raise MarkingError(
            "internal error: derived counterexample parameters violate their ordering"
        )
    values = [1.0] + [float(epsilon)] * (C * R) + [float(delta)] * (R - 1)
    return IndicatorVector(values), spec

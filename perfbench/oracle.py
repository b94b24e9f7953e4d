"""Exact-arithmetic oracle for Dörfler marking, independent of the package.

The criterion is defined on the stored doubles: an index set ``M`` is
admissible when ``sum(x[M]) >= theta * sum(x)`` holds in exact rational
arithmetic, where ``theta`` is the stored double as well.  ``N_min`` is the
smallest admissible cardinality; the ``N_min`` largest entries always form an
admissible set, so it is found on the descending order.

Sums are exact: every double is split into an integer mantissa and a binary
exponent, mantissas are added per exponent in int64 (in two 26/27-bit halves,
so no partial sum can overflow for up to 2**24 terms), and the per-exponent
totals are combined as Python integers.  Float arithmetic only proposes the
cut; the exact sums settle it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

EPS = float(np.finfo(np.float64).eps)
_MANTISSA_SCALE = float(2**53)
_HALF_BITS = 26
_HALF_MASK = (1 << _HALF_BITS) - 1


def exact_sum(values: np.ndarray) -> Fraction:
    """The exact rational sum of a float64 array."""
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return Fraction(0)
    frac, exp = np.frexp(a)
    mant = (frac * _MANTISSA_SCALE).astype(np.int64)
    # int16 keys make the stable argsort a radix sort
    order = np.argsort(exp.astype(np.int16), kind="stable")
    exp_sorted = exp[order]
    mant_sorted = mant[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(exp_sorted)) + 1))
    hi = np.add.reduceat(mant_sorted >> _HALF_BITS, starts)
    lo = np.add.reduceat(mant_sorted & _HALF_MASK, starts)
    shifts = exp_sorted[starts].astype(np.int64) - 53
    base = int(shifts.min())
    total = 0
    for h, l, s in zip(hi.tolist(), lo.tolist(), shifts.tolist()):
        total += ((h << _HALF_BITS) + l) << (s - base)
    if base >= 0:
        return Fraction(total << base)
    return Fraction(total, 1 << -base)


@dataclass(frozen=True, eq=False)
class Solution:
    """Exact reference data for one instance.

    ``minimal`` holds the ``nmin`` largest entries (ties by ascending index);
    ``goal`` is ``theta * sum(x)`` exactly; ``slack`` is the verification
    slack ``4 * N * eps * max(x)`` that the package documents.
    """

    nmin: int
    minimal: np.ndarray
    goal: Fraction
    slack: Fraction


def solve(x: np.ndarray, theta: float) -> Solution:
    """Exact ``N_min`` and a minimal set; ``x`` nonnegative, ``0 < theta < 1``."""
    n = int(x.size)
    order = np.argsort(-x, kind="stable")
    desc = x[order]
    goal = Fraction(theta) * exact_sum(x)
    # the float prefix sums propose the cut; exact sums move it to the truth
    k = int(np.searchsorted(np.cumsum(desc), float(goal), side="left")) + 1
    k = min(max(k, 1), n)
    prefix = exact_sum(desc[:k])
    while prefix < goal and k < n:
        prefix += Fraction(float(desc[k]))
        k += 1
    while k > 1 and prefix - Fraction(float(desc[k - 1])) >= goal:
        k -= 1
        prefix -= Fraction(float(desc[k]))
    slack = Fraction(4.0 * n * EPS * float(x.max()))
    return Solution(nmin=k, minimal=order[:k].copy(), goal=goal, slack=slack)


def check_marked(x: np.ndarray, solution: Solution, marked) -> str | None:
    """Why ``marked`` is not an admissible index set of ``x``, or None if it is.

    Admissible means: integer indices, all in range, pairwise distinct, and
    carrying the goal mass within the documented slack.
    """
    idx = np.asarray(marked)
    if idx.ndim != 1:
        return f"marked set has shape {idx.shape}"
    if idx.size == 0:
        return "marked set is empty"
    if not np.issubdtype(idx.dtype, np.integer):
        return f"marked indices have dtype {idx.dtype}"
    if int(idx.min()) < 0 or int(idx.max()) >= x.size:
        return "marked index out of range"
    seen = np.zeros(x.size, dtype=bool)
    seen[idx] = True
    if int(np.count_nonzero(seen)) != idx.size:
        return "marked indices are not distinct"
    need = solution.goal - solution.slack
    values = x[idx]
    approx = float(np.sum(values))
    # a float sum of m nonnegative terms is off by at most m * eps * sum
    if approx * (1.0 - 2.0 * idx.size * EPS) > float(need) * (1.0 + 2.0 * EPS):
        return None
    if exact_sum(values) < need:
        return "marked set misses the criterion"
    return None

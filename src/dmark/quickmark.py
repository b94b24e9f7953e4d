"""Minimal-cardinality marking in linear time by selection-style recursion.

The value kernel reorders a scratch copy of the indicators in place.  At each
level it partitions the active range around the value of a chosen rank,
then either recurses into the part above the rank (it already covers the
goal), stops at the rank (the rank's value closes the gap), or recurses into
the part below with the goal reduced by the mass it skips.  It returns the
threshold ``x_star`` and the cut ``count``, the cardinality of the marked
set; one materialise step turns the two into the index set.  With a median
rank each step halves the range, and numpy's introselect partitions it in
worst-case linear time, giving worst-case linear total cost; the
returned set has minimal cardinality for every input whose sums do not sit
within rounding of the goal.

Three pivot policies choose the rank: the deterministic (lower) median, a
seeded random rank (fast on average, quadratic in the worst case), and a
fixed ``q``-quantile whose cost scales with ``1 / min(q, 1 - q)``.

An :class:`~dmark.core.OpCounter` counts the element operations of this
same kernel, the elements each level partitions plus the elements it sums,
so the counted cost is the cost of the code that is timed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .core import (
    EPS,
    AdmissibilityError,
    IndicatorInput,
    MarkingOutcome,
    OpCounter,
    ParameterError,
    ThresholdMismatchError,
    as_indicators,
    check_indicators,
    check_theta,
    criterion_tolerance,
    goal_value,
    pairwise_sum,
)
from .oracle import is_valid_minimal_set

__all__ = [
    "MedianPivot",
    "RandomPivot",
    "QuantilePivot",
    "PivotStrategy",
    "QuickMarkResult",
    "quickmark",
    "xstar_kernel",
    "set_from_threshold",
]


@dataclass(frozen=True)
class MedianPivot:
    """Deterministic lower-median pivot; worst-case linear overall cost."""


@dataclass(frozen=True)
class RandomPivot:
    """Uniformly random pivot from a seeded generator (PCG64).

    Fast on average; an adversarial input can drive the recursion to
    quadratic cost, so the median pivot is the safe default.
    """

    seed: int = 0


@dataclass(frozen=True)
class QuantilePivot:
    """Pivot at a fixed quantile ``q`` of the active range, 0 < q < 1."""

    q: float

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise ParameterError(f"quantile must lie strictly in (0, 1), got {self.q!r}")


PivotStrategy = Union[MedianPivot, RandomPivot, QuantilePivot]


@dataclass(frozen=True, eq=False)
class QuickMarkResult:
    """Marked set and threshold of a selection run.

    ``marked`` holds the marked indices as a read-only int64 array and
    ``x_star`` is the smallest marked value.  ``x_star`` is a property of the
    instance alone, independent of the pivot policy, even though the marked
    set itself need not be unique.  ``perm`` (marked indices, then the rest
    in ascending order) is built when first read.
    """

    marked: np.ndarray
    x_star: float
    n_total: int

    @property
    def n(self) -> int:
        return int(self.marked.size)

    @cached_property
    def perm(self) -> np.ndarray:
        rest = np.ones(self.n_total, dtype=bool)
        rest[self.marked] = False
        perm = np.concatenate((self.marked, np.flatnonzero(rest)))
        perm.setflags(write=False)
        return perm

    def marked_indices(self) -> np.ndarray:
        return self.marked.copy()

    def to_outcome(self, x: IndicatorInput) -> MarkingOutcome:
        return MarkingOutcome.trusted(as_indicators(x), self.marked)


def _ceil_count(residual: float, pivot_value: float, max_count: int) -> int:
    """Smallest integer m with m * pivot_value >= residual, robust near ties.

    When the division lands within a few ulps of an integer, the quotient is
    re-derived by direct multiplication so rounding cannot shift the cut by
    one.
    """
    q = residual / pivot_value
    m = math.ceil(q)
    nearest = round(q)
    if abs(q - nearest) <= 4.0 * EPS * max(1.0, abs(q)):
        m = int(nearest)
        while m * pivot_value < residual:
            m += 1
        while m > 1 and (m - 1) * pivot_value >= residual:
            m -= 1
    if m < 1:
        m = 1
    if m > max_count:
        m = max_count
    return m


def quickmark(
    x: IndicatorInput,
    theta: float,
    pivot: PivotStrategy = MedianPivot(),
    *,
    counter: OpCounter | None = None,
    check_invariants: bool = False,
) -> QuickMarkResult:
    """Minimal-cardinality marking by pivot-partition recursion.

    The value kernel runs on a scratch copy and one materialise step builds
    the set; a ``counter`` counts the kernel's element operations.
    ``check_invariants`` re-verifies the range ordering, goal consistency and
    goal reachability at every level, and the dominance and
    removal-minimality of the final set (debug mode; raises
    :class:`AdmissibilityError` on any violation, which would indicate a
    bug).
    """
    iv = as_indicators(x)
    check_theta(theta)
    goal = goal_value(iv, theta)
    tol = criterion_tolerance(iv) if check_invariants else None
    x_star, count = _select(iv.scratch_copy(), goal, pivot, tol, counter)
    result = QuickMarkResult(_materialise(iv.values, x_star, count), x_star, iv.n)
    if tol is not None:
        _verify_cut(iv, result, goal, tol)
    return result


def _select(
    a: np.ndarray,
    v: float,
    pivot: PivotStrategy,
    tol: float | None = None,
    counter: OpCounter | None = None,
) -> tuple[float, int]:
    """Destructive value kernel: threshold ``x_star`` and cut ``count``.

    Reorders ``a`` in place so that ``a[:k] <= x_star == a[k] <= a[k:]`` at
    the stopping rank ``k`` and returns ``(a[k], N - k)``: the ``count``
    largest values carry the goal ``v`` and the ``count - 1`` largest do not.
    The pivot policy chooses the rank at each level.  A rank at the bottom of
    the range always stops, so rounding that leaves the residual goal above
    the range mass cannot empty the range.  With ``tol`` every level is
    checked against the goal with that slack.  A ``counter`` gets, per level,
    the elements partitioned plus the elements summed above the rank.
    """
    n_total = int(a.size)
    goal = v
    rng = np.random.default_rng(pivot.seed) if isinstance(pivot, RandomPivot) else None
    lo, hi = 0, n_total
    while True:
        if tol is not None:
            _verify_level(a, lo, hi, v, goal, tol)
        m = hi - lo
        if isinstance(pivot, MedianPivot):
            r = (m - 1) // 2
        elif isinstance(pivot, RandomPivot):
            r = int(rng.integers(m))
        else:
            r = min(int(pivot.q * m), m - 1)
        k = lo + r
        a[lo:hi].partition(r)
        pv = float(a[k])
        upper = float(a[k + 1 : hi].sum())
        if counter is not None:
            counter.add(m + (hi - k - 1))
        if upper >= v and k + 1 < hi:
            lo = k + 1
        elif upper + pv >= v or k == lo:
            return pv, n_total - k
        else:
            v -= upper + pv
            hi = k


def _materialise(values: np.ndarray, x_star: float, count: int) -> np.ndarray:
    """The ``count`` marked indices of a cut, ascending and read-only.

    Every index above ``x_star`` and the lowest-index ties at ``x_star``; the
    kernel's ordering guarantees that between one and all of the ties are
    needed, so no float decision is taken here.
    """
    marked = np.flatnonzero(values >= x_star)
    surplus = marked.size - count
    if surplus:
        ties = np.flatnonzero(values[marked] == x_star)
        marked = np.delete(marked, ties[ties.size - surplus :])
    marked.setflags(write=False)
    return marked


def _verify_level(a, lo, hi, v, goal, tol) -> None:
    if lo > 0 and not float(a[:lo].max()) <= float(a[lo:hi].min()):
        raise AdmissibilityError("prefix not below the active range")
    if hi < a.size and not float(a[lo:hi].max()) <= float(a[hi:].min()):
        raise AdmissibilityError("suffix not above the active range")
    if not v > 0.0:
        raise AdmissibilityError(f"residual goal not positive: {v!r}")
    expected = goal - (pairwise_sum(a[hi:]) if hi < a.size else 0.0)
    if abs(v - expected) > tol:
        raise AdmissibilityError(
            f"residual goal {v!r} inconsistent with the fixed mass (expected {expected!r})"
        )
    if v > pairwise_sum(a[lo:hi]) + tol:
        raise AdmissibilityError("residual goal exceeds the active range mass")


def _verify_cut(iv, result, goal, tol) -> None:
    if float(iv.values[result.marked].min()) != result.x_star:
        raise AdmissibilityError("threshold is not the smallest marked value")
    if not is_valid_minimal_set(iv, result.perm, 0, iv.n, goal, range(result.n), tol):
        raise AdmissibilityError(
            "marked set does not dominate the rest, reach the goal and stay removal-minimal"
        )


def xstar_kernel(x_copy: np.ndarray, theta: float, counter: OpCounter | None = None) -> float:
    """Threshold of the minimal marking, computed on a destructive scratch copy.

    ``x_copy`` must be a caller-owned scratch array; it is reordered in place
    (contiguous accesses, no permutation indirection) by the same value
    kernel that :func:`quickmark` runs, with the median rank, and a
    ``counter`` counts that kernel's element operations.  Returns the
    smallest value contained in any minimal marked set; combine with
    :func:`set_from_threshold` to materialize the index set.
    """
    check_theta(theta)
    a = np.asarray(x_copy, dtype=np.float64)
    check_indicators(a)
    return _select(a, theta * pairwise_sum(a), MedianPivot(), counter=counter)[0]


def set_from_threshold(
    x: IndicatorInput, theta: float, x_star: float
) -> MarkingOutcome:
    """Materialize the minimal marked set from its threshold value.

    Takes every index with value strictly above ``x_star`` plus the smallest
    number of indices with value exactly ``x_star`` (lowest original indices
    first) needed to reach the goal.  Raises
    :class:`ThresholdMismatchError` when ``x_star`` cannot have come from the
    same instance and parameter.
    """
    iv = as_indicators(x)
    check_theta(theta)
    v = goal_value(iv, theta)
    if not x_star > 0.0:
        raise ThresholdMismatchError(f"threshold must be positive, got {x_star!r}")
    above = iv.values > x_star
    n_above = int(np.count_nonzero(above))
    n_at = int(np.count_nonzero(iv.values == x_star))
    sum_above = pairwise_sum(iv.values[above])
    if sum_above >= v:
        raise ThresholdMismatchError(
            "values above the threshold already cover the goal; threshold too small"
        )
    if sum_above + n_at * x_star < v:
        raise ThresholdMismatchError(
            "values at and above the threshold fall short of the goal"
        )
    need = _ceil_count(v - sum_above, x_star, n_at)
    return MarkingOutcome.trusted(iv, _materialise(iv.values, x_star, n_above + need))

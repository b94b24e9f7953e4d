"""Minimal-cardinality marking in linear time by selection-style recursion.

The value kernel reorders a scratch copy of the indicators in place.  At each
level it partitions the active range around the value of a chosen rank,
then either recurses into the part above the rank (it already covers the
goal), stops at the rank (the rank's value closes the gap), or recurses into
the part below with the goal reduced by the mass it skips.  It returns the
threshold ``x_star`` and the cut ``count``, the cardinality of the marked
set; one materialise step turns the two into the index set.  With a median
rank each step halves the range, giving worst-case linear total cost; the
returned set has minimal cardinality for every input whose sums do not sit
within rounding of the goal.

Three pivot policies choose the rank: the deterministic (lower) median, a
seeded random rank (fast on average, quadratic in the worst case), and a
fixed ``q``-quantile whose cost scales with ``1 / min(q, 1 - q)``.

The index-permuting step API (:func:`partition`, :func:`pivot_median`,
:class:`SelectionState`) and the counted pure-Python recursion behind
``quickmark(..., counter=...)`` remain as the instrumented reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from ._selection import partition_synced, select_rank_value, xstar_counted
from .core import (
    EPS,
    AdmissibilityError,
    IndicatorInput,
    InvalidIndicatorsError,
    MarkingOutcome,
    OpCounter,
    ParameterError,
    ThresholdMismatchError,
    as_indicators,
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
    "SelectionState",
    "PartitionOutcome",
    "QuickMarkResult",
    "quickmark",
    "partition",
    "pivot_median",
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


@dataclass(eq=False)
class SelectionState:
    """State of the selection recursion: permutation, active range, residual goal.

    ``lower``/``upper`` bound the active range as a half-open 0-based
    interval.  A state is admissible when the permutation is partially ordered
    around the range (everything before ``lower`` strictly exceeds everything
    from ``lower`` on, everything from ``upper`` on is strictly below
    everything before it) and the residual goal is positive, consistent with
    the already-fixed prefix, and reachable within the range.
    """

    perm: np.ndarray
    lower: int
    upper: int
    residual_goal: float

    def __post_init__(self) -> None:
        perm = np.asarray(self.perm, dtype=np.int64)
        n = perm.size
        counts = np.bincount(perm, minlength=n) if n else np.zeros(0, dtype=np.int64)
        if counts.size != n or not np.all(counts == 1):
            raise ParameterError("perm must be a permutation of 0..N-1")
        if not (0 <= self.lower < self.upper <= n):
            raise ParameterError(
                f"invalid range [{self.lower}, {self.upper}) for N={n}"
            )
        if not self.residual_goal > 0.0:
            raise ParameterError("residual goal must be positive")
        self.perm = perm

    def check_admissible(self, x: IndicatorInput, theta: float) -> None:
        """Raise :class:`AdmissibilityError` if the state violates its invariants."""
        iv = as_indicators(x)
        _verify_admissible(
            iv.values,
            self.perm,
            self.lower,
            self.upper,
            self.residual_goal,
            theta,
            criterion_tolerance(iv),
        )


@dataclass(frozen=True, eq=False)
class PartitionOutcome:
    """Result of a three-way partition of the active range.

    In the new permutation, positions ``[lower, greater_end)`` hold values
    strictly greater than the pivot, ``[greater_end, smaller_start)`` values
    equal to it (at least the pivot itself), and ``[smaller_start, upper)``
    strictly smaller values.  Outside the range the permutation is unchanged.
    """

    perm: np.ndarray
    greater_end: int
    smaller_start: int
    pivot_value: float


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


def _verify_admissible(values, perm, lo, hi, v, theta, tol) -> None:
    n = values.size
    if lo > 0:
        if not float(values[perm[:lo]].min()) > float(values[perm[lo:]].max()):
            raise AdmissibilityError("prefix not strictly above active range")
    if hi < n:
        if not float(values[perm[:hi]].min()) > float(values[perm[hi:]].max()):
            raise AdmissibilityError("suffix not strictly below active range")
    if not v > 0.0:
        raise AdmissibilityError(f"residual goal not positive: {v!r}")
    prefix_sum = pairwise_sum(values[perm[:lo]]) if lo else 0.0
    expected = theta * pairwise_sum(values) - prefix_sum
    if abs(v - expected) > tol:
        raise AdmissibilityError(
            f"residual goal {v!r} inconsistent with prefix (expected {expected!r})"
        )
    if v > pairwise_sum(values[perm[lo:hi]]) + tol:
        raise AdmissibilityError("residual goal exceeds the active range mass")


def _verify_partition(values, perm, lo, hi, greater_end, smaller_start, pv) -> None:
    if not (lo <= greater_end < smaller_start <= hi):
        raise AdmissibilityError("partition block boundaries out of order")
    seg = values[perm[lo:hi]]
    g = greater_end - lo
    s = smaller_start - lo
    if g and not np.all(seg[:g] > pv):
        raise AdmissibilityError("greater block contains non-greater value")
    if not np.all(seg[g:s] == pv):
        raise AdmissibilityError("pivot block contains non-pivot value")
    if s < hi - lo and not np.all(seg[s:] < pv):
        raise AdmissibilityError("smaller block contains non-smaller value")


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


def partition(
    x: IndicatorInput,
    state: SelectionState,
    p: int,
    counter: OpCounter | None = None,
) -> PartitionOutcome:
    """Three-way partition of the state's active range around position ``p``.

    Pure: returns a new permutation, the input state is untouched.  Each block
    keeps the previous relative order of its members, so the result is
    deterministic.
    """
    iv = as_indicators(x)
    lo, hi = state.lower, state.upper
    if not (lo <= p < hi):
        raise IndexError(f"pivot position {p} outside [{lo}, {hi})")
    perm_new = state.perm.copy()
    seg_idx = perm_new[lo:hi]
    seg = iv.values[seg_idx]
    pv = float(iv.values[perm_new[p]])
    gt = seg > pv
    lt = seg < pv
    eq = ~(gt | lt)
    if counter is not None:
        counter.add(2 * (hi - lo))
    perm_new[lo:hi] = np.concatenate((seg_idx[gt], seg_idx[eq], seg_idx[lt]))
    greater_end = lo + int(np.count_nonzero(gt))
    smaller_start = greater_end + int(np.count_nonzero(eq))
    return PartitionOutcome(
        perm=perm_new,
        greater_end=greater_end,
        smaller_start=smaller_start,
        pivot_value=pv,
    )


def pivot_median(
    x: IndicatorInput,
    perm: np.ndarray,
    lo: int,
    hi: int,
    counter: OpCounter | None = None,
) -> int:
    """Position of a median element of ``x`` over ``perm[lo:hi]``.

    The returned position holds the lower median value, so at most half the
    range is strictly smaller and at most half strictly greater.  With a
    counter the rank is found by median-of-medians selection (linear worst
    case); otherwise numpy's introselect does the work.  Deterministic: among
    equals, the first position in the range wins.
    """
    iv = as_indicators(x)
    perm = np.asarray(perm, dtype=np.int64)
    if not (0 <= lo < hi <= perm.size):
        raise IndexError(f"invalid range [{lo}, {hi})")
    seg = iv.values[perm[lo:hi]]
    k = (hi - lo - 1) // 2
    if counter is None:
        pv = np.partition(seg, k)[k]
        return lo + int(np.flatnonzero(seg == pv)[0])
    box = [0]
    pv = select_rank_value(seg.tolist(), k, box)
    pos = lo
    for val in seg.tolist():
        box[0] += 1
        if val == pv:
            break
        pos += 1
    counter.add(box[0])
    return pos


def quickmark(
    x: IndicatorInput,
    theta: float,
    pivot: PivotStrategy = MedianPivot(),
    *,
    counter: OpCounter | None = None,
    check_invariants: bool = False,
) -> QuickMarkResult:
    """Minimal-cardinality marking by pivot-partition recursion.

    Without a counter the value kernel runs on a scratch copy and one
    materialise step builds the set; with one, a faithful pure-Python path
    counts every element comparison.  ``check_invariants`` re-verifies the
    range ordering, goal consistency and goal reachability at every level,
    and the dominance and removal-minimality of the final set (debug mode;
    raises :class:`AdmissibilityError` on any violation, which would
    indicate a bug).
    """
    iv = as_indicators(x)
    check_theta(theta)
    if counter is not None:
        return _quickmark_counted(iv, theta, pivot, counter, check_invariants)
    goal = goal_value(iv, theta)
    tol = criterion_tolerance(iv) if check_invariants else None
    x_star, count = _select(iv.scratch_copy(), goal, pivot, tol)
    result = QuickMarkResult(_materialise(iv.values, x_star, count), x_star, iv.n)
    if tol is not None:
        _verify_cut(iv, result, goal, tol)
    return result


def _select(
    a: np.ndarray, v: float, pivot: PivotStrategy, tol: float | None = None
) -> tuple[float, int]:
    """Destructive value kernel: threshold ``x_star`` and cut ``count``.

    Reorders ``a`` in place so that ``a[:k] <= x_star == a[k] <= a[k:]`` at
    the stopping rank ``k`` and returns ``(a[k], N - k)``: the ``count``
    largest values carry the goal ``v`` and the ``count - 1`` largest do not.
    The pivot policy chooses the rank at each level.  A rank at the bottom of
    the range always stops, so rounding that leaves the residual goal above
    the range mass cannot empty the range.  With ``tol`` every level is
    checked against the goal with that slack.
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


def _verify_termination(values, perm, n, pv, v, lo, sigma, tol) -> None:
    marked_vals = values[perm[:n]]
    x_min = float(marked_vals.min())
    if x_min != pv:
        raise AdmissibilityError("terminating pivot is not the smallest marked value")
    local = pairwise_sum(values[perm[lo:n]])
    if local + tol < v:
        raise AdmissibilityError("marked range does not reach the residual goal")
    if local - pv >= v + tol:
        raise AdmissibilityError("marked range is not minimal (one value removable)")


def _quickmark_counted(
    iv, theta: float, pivot: PivotStrategy, counter: OpCounter, check: bool
) -> QuickMarkResult:
    values = iv.values
    n_total = iv.n
    v = goal_value(iv, theta)
    perm = list(range(n_total))
    xp = values.tolist()
    lo, hi = 0, n_total
    box = [0]
    tol = criterion_tolerance(iv) if check else 0.0
    rng = np.random.default_rng(pivot.seed) if isinstance(pivot, RandomPivot) else None

    while True:
        if check:
            _verify_admissible(
                values, np.asarray(perm, dtype=np.int64), lo, hi, v, theta, tol
            )
        m = hi - lo
        if isinstance(pivot, RandomPivot):
            pv = xp[lo + int(rng.integers(m))]
        else:
            k = (m - 1) // 2 if isinstance(pivot, MedianPivot) else min(int(pivot.q * m), m - 1)
            pv = select_rank_value(xp[lo:hi], k, box)

        greater_end, smaller_start = partition_synced(perm, xp, lo, hi, pv, box)
        sigma = 0.0
        for j in range(lo, greater_end):
            sigma += xp[j]
        if check:
            _verify_partition(
                values,
                np.asarray(perm, dtype=np.int64),
                lo,
                hi,
                greater_end,
                smaller_start,
                pv,
            )

        box[0] += 1
        if sigma >= v:
            hi = greater_end
            continue
        covered = sigma + (smaller_start - greater_end) * pv
        box[0] += 1
        if covered >= v:
            n = greater_end + _ceil_count(v - sigma, pv, smaller_start - greater_end)
            counter.add(box[0])
            perm_arr = np.asarray(perm, dtype=np.int64)
            if check:
                _verify_termination(values, perm_arr, n, pv, v, lo, sigma, tol)
            marked = perm_arr[:n].copy()
            marked.setflags(write=False)
            return QuickMarkResult(marked=marked, x_star=pv, n_total=n_total)
        v -= covered
        lo = smaller_start


def xstar_kernel(x_copy: np.ndarray, theta: float, counter: OpCounter | None = None) -> float:
    """Threshold of the minimal marking, computed on a destructive scratch copy.

    ``x_copy`` must be a caller-owned scratch array; it is reordered in place
    (contiguous accesses, no permutation indirection) by the same value
    kernel that :func:`quickmark` runs, with the median rank.  Returns the
    smallest value contained in any minimal marked set; combine with
    :func:`set_from_threshold` to materialize the index set.
    """
    check_theta(theta)
    a = np.asarray(x_copy, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise InvalidIndicatorsError("scratch must be a nonempty 1-d float64 array")
    if not np.all(np.isfinite(a)):
        raise InvalidIndicatorsError("indicators must be finite")
    if np.any(a < 0.0):
        raise InvalidIndicatorsError("indicators must be nonnegative")
    if not np.any(a > 0.0):
        raise InvalidIndicatorsError("at least one indicator must be positive")

    v = theta * pairwise_sum(a)
    if counter is not None:
        box = [0]
        result = xstar_counted(a.tolist(), v, box)
        counter.add(box[0])
        return float(result)
    return _select(a, v, MedianPivot())[0]


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

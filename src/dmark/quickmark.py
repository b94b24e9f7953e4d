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

from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    AdmissibilityError,
    IndicatorInput,
    MarkingOutcome,
    OpCounter,
    ParameterError,
    as_indicators,
    check_indicators,
    check_theta,
    criterion_tolerance,
    goal_value,
    overflow_guard,
    pairwise_sum,
)
from .oracle import is_valid_minimal_set

__all__ = [
    "MedianPivot",
    "RandomPivot",
    "QuantilePivot",
    "PivotStrategy",
    "quickmark",
    "xstar_kernel",
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


def quickmark(
    x: IndicatorInput,
    theta: float,
    pivot: PivotStrategy = MedianPivot(),
    *,
    counter: OpCounter | None = None,
    check_invariants: bool = False,
) -> MarkingOutcome:
    """Minimal-cardinality marking by pivot-partition recursion.

    The value kernel runs on a scratch copy and one materialise step builds
    the set; the outcome's ``threshold`` is the kernel's ``x_star``, and a
    ``counter`` counts the kernel's element operations.
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
    with overflow_guard(iv.n, iv.max_value()):
        x_star, count = _select(iv.scratch_copy(), goal, pivot, tol, counter)
        marked = _materialise(iv.values, x_star, count)
        outcome = MarkingOutcome(marked, pairwise_sum(iv.values[marked]), int(marked.size), x_star)
        if tol is not None:
            _verify_cut(iv, outcome, goal, tol)
    return outcome


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


def _verify_cut(iv, outcome, goal, tol) -> None:
    if float(iv.values[outcome.marked].min()) != outcome.threshold:
        raise AdmissibilityError("threshold is not the smallest marked value")
    if not is_valid_minimal_set(iv, outcome.marked, goal, tol):
        raise AdmissibilityError(
            "marked set does not dominate the rest, reach the goal and stay removal-minimal"
        )


def xstar_kernel(x_copy: np.ndarray, theta: float, counter: OpCounter | None = None) -> float:
    """Threshold of the minimal marking, computed on a destructive scratch copy.

    ``x_copy`` must be a caller-owned scratch array; it is reordered in place
    (contiguous accesses, no permutation indirection) by the same value
    kernel that :func:`quickmark` runs, with the median rank, and a
    ``counter`` counts that kernel's element operations.  Returns the
    smallest value contained in any minimal marked set.  The threshold alone
    does not fix the cut among ties in floating point; :func:`quickmark`
    returns the index set that the kernel's cut decides.
    """
    check_theta(theta)
    a = np.asarray(x_copy, dtype=np.float64)
    with overflow_guard(a.size, check_indicators(a)):
        return _select(a, theta * pairwise_sum(a), MedianPivot(), counter=counter)[0]

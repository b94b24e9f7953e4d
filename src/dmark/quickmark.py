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

From ``_MIN_N`` entries on, a sampled lower bound of ``x_star`` narrows
the kernel to the candidates above it (Floyd & Rivest's sampled selection,
applied to the mass-weighted cut).  A strided sample of at most
``_SAMPLE`` entries is sorted, and the rank where its mass crosses a
``theta`` share of its own total is widened by five standard deviations of
a sampled count; the next smaller sample value is the bound ``lo``.  (This
ratio estimate fell back less often on heavy tails than one that scales
the sample's mass by ``N / s``.)  One pass takes the ascending indices of
the entries above ``lo``, the largest entries, and their float sum must
clear the goal by the rounding bound of its ``m`` summands, so that their
exact sum carries it.  Then ``x_star > lo``, every tie at ``x_star`` is a
candidate, and the kernel and the materialise step run on the candidates
alone: no scratch copy of every entry and no full-length threshold pass.
On a smaller input, an infinite or subnormal goal, ``lo <= 0`` and
candidates that miss the goal, the kernel runs on a scratch copy of every
entry as before; that fallback costs one extra pass and the sort of the
sample at most, so the worst case stays linear.

An :class:`~dmark.core.OpCounter` counts the element operations of this
same kernel, the elements each level partitions plus the elements it sums,
and the filter's ``N`` comparisons and ``m`` summands, so the counted cost
is the cost of the code that is timed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    EPS,
    AdmissibilityError,
    IndicatorInput,
    MarkingOutcome,
    OpCounter,
    ParameterError,
    _TINY,
    _exact_sum,
    as_indicators,
    check_theta,
    criterion_tolerance,
    goal_value,
    materialise,
    overflow_guard,
    pairwise_sum,
    total_and_max,
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

# entries in the strided sample, and the smallest N whose mark() call the
# sample and the filter make cheaper (crossover measured in CHANGES.md)
_SAMPLE = 4096
_MIN_N = 32768


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

    The value kernel runs on the candidates above a sampled lower bound of
    ``x_star``, or on a scratch copy of every entry when the bound does not
    hold (see the module docstring), and one materialise step builds the
    set; the outcome's ``threshold`` is the kernel's ``x_star``, and a
    ``counter`` counts the filter's and the kernel's element operations.
    ``check_invariants`` re-verifies the range ordering, goal consistency and
    goal reachability at every level, and the dominance and
    removal-minimality of the final set, and that the candidates hold every
    entry above their bound and carry the goal exactly (debug mode; raises
    :class:`AdmissibilityError` on any violation, which would indicate a
    bug).
    """
    iv = as_indicators(x)
    check_theta(theta)
    goal = goal_value(iv, theta)
    tol = criterion_tolerance(iv) if check_invariants else None
    with overflow_guard(iv.total()):
        cut = _candidates(iv.values, theta, goal, tol, counter)
        if cut is None:
            x_star, count = _select(iv.scratch_copy(), goal, pivot, tol, counter)
            marked = materialise(iv.values, x_star, count)
        else:
            idx, scratch = cut
            x_star, count = _select(scratch, goal, pivot, tol, counter)
            # the candidates in index order again, in the kernel's buffer,
            # which is released before the marked indices are allocated
            at_least = iv.values.take(idx, out=scratch, mode="clip") >= x_star
            del cut, scratch
            marked = materialise(iv.values, x_star, count, idx.compress(at_least))
        outcome = MarkingOutcome(marked, pairwise_sum(iv.values[marked]), int(marked.size), x_star)
        if tol is not None:
            _verify_cut(iv, outcome, goal, tol)
    return outcome


def _candidates(
    values: np.ndarray,
    theta: float,
    goal: float,
    tol: float | None = None,
    counter: OpCounter | None = None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The entries above a sampled lower bound of ``x_star``: indices and values.

    Returns the ascending indices of the candidates and a fresh array of
    their values, or ``None`` when the kernel must run on every entry: ``N``
    below ``_MIN_N``, a goal that overflowed or is subnormal, a bound that
    is not positive, or candidates whose float sum does not clear the goal
    by the rounding bound ``2 * (m + 1) * eps`` of ``m`` summands (the bound
    of ``core._first_reaching``).  With ``tol`` the candidates are checked
    to hold every entry above the bound and to carry the goal exactly.  A
    ``counter`` gets the ``N`` comparisons of the filter and the ``m``
    summands.
    """
    n = int(values.size)
    if n < _MIN_N or not _TINY <= goal < math.inf:
        return None
    sample = np.sort(values[:: -(-n // _SAMPLE)])[::-1]
    mass = sample.cumsum()
    # the rank where the sample's mass crosses its own theta share, widened
    # by five standard deviations of a sampled count and a margin
    j = int(mass.searchsorted(theta * mass[-1]))
    j += int(5.0 * math.sqrt(j + 1.0)) + 16
    if j >= sample.size:
        return None
    # the next smaller sample value, so that a tie at rank j stays whole
    rest = sample[j:]
    lo = float(rest[int((rest < rest[0]).argmax())])
    if not 0.0 < lo < rest[0]:
        return None
    idx = (values > lo).nonzero()[0]
    cand = values.take(idx)
    if counter is not None:
        counter.add(n + idx.size)
    if not float(np.add.reduce(cand)) >= goal * (1.0 + 2.0 * (idx.size + 1) * EPS):
        return None
    if tol is not None:
        _verify_candidates(values, lo, idx, goal)
    return idx, cand


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
    # an inf (overflowed) goal keeps the mass fixed above ``hi`` here, not in ``v``
    lo, hi, fixed = 0, n_total, 0.0
    while True:
        if tol is not None:
            _verify_level(a, lo, hi, v, goal, tol, fixed)
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
        upper = fixed + float(np.add.reduce(a[k + 1 : hi]))
        if counter is not None:
            counter.add(m + (hi - k - 1))
        if upper >= v and k + 1 < hi:
            lo = k + 1
        elif upper + pv >= v or k == lo:
            return pv, n_total - k
        elif v == np.inf:
            fixed = upper + pv
            hi = k
        else:
            v -= upper + pv
            hi = k


def _verify_level(a, lo, hi, v, goal, tol, fixed=0.0) -> None:
    if lo > 0 and not float(a[:lo].max()) <= float(a[lo:hi].min()):
        raise AdmissibilityError("prefix not below the active range")
    if hi < a.size and not float(a[lo:hi].max()) <= float(a[hi:].min()):
        raise AdmissibilityError("suffix not above the active range")
    # only a goal that underflows to 0 leaves a residual that is not positive
    if not (v > 0.0 or goal == 0.0):
        raise AdmissibilityError(f"residual goal not positive: {v!r}")
    expected = goal - (pairwise_sum(a[hi:]) if hi < a.size else 0.0)
    if abs(v - expected) > tol:
        raise AdmissibilityError(
            f"residual goal {v!r} inconsistent with the fixed mass (expected {expected!r})"
        )
    if v > fixed + pairwise_sum(a[lo:hi]) + tol:
        raise AdmissibilityError("residual goal exceeds the active range mass")


def _verify_candidates(values, lo, idx, goal) -> None:
    dropped = np.ones(values.size, dtype=bool)
    dropped[idx] = False
    if dropped.any() and not float(values[dropped].max()) <= lo:
        raise AdmissibilityError("a dropped entry exceeds the candidate bound")
    if not _exact_sum(values, [idx]) >= goal:
        raise AdmissibilityError("the candidates do not carry the goal")


def _verify_cut(iv, outcome, goal, tol) -> None:
    if float(iv.values[outcome.marked].min()) != outcome.threshold:
        raise AdmissibilityError("threshold is not the smallest marked value")
    if not is_valid_minimal_set(iv, outcome.marked, goal, tol):
        raise AdmissibilityError(
            "marked set does not dominate the rest, reach the goal and stay removal-minimal"
        )


def xstar_kernel(x_copy: np.ndarray, theta: float, counter: OpCounter | None = None) -> float:
    """Threshold of the minimal marking, computed on a destructive scratch copy.

    ``x_copy`` must be a caller-owned scratch array.  The same value kernel
    that :func:`quickmark` runs, with the median rank, runs on the
    candidates above a sampled lower bound of the threshold, or, when that
    bound does not hold, reorders ``x_copy`` itself in place (contiguous
    accesses, no permutation indirection); a ``counter`` counts the
    filter's and the kernel's element operations.  Returns the
    smallest value contained in any minimal marked set.  The threshold alone
    does not fix the cut among ties in floating point; :func:`quickmark`
    returns the index set that the kernel's cut decides.
    """
    check_theta(theta)
    a = np.asarray(x_copy, dtype=np.float64)
    total = total_and_max(a)[0]
    with overflow_guard(total):
        goal = theta * total
        cut = _candidates(a, theta, goal, counter=counter)
        return _select(a if cut is None else cut[1], goal, MedianPivot(), counter=counter)[0]

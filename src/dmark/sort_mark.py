"""Minimal marking by full descending sort, and the sorted cut that it shares.

This is the classical log-linear reference strategy: sort the indicators and
cut the descending order at the first prefix that reaches the goal.  The cut,
:func:`_cut`, also makes every cut of the selection kernel in
:mod:`dmark.quickmark` (:func:`_settle` sorts a range and cuts it; it sums
the mass above its range from its own buffer).  On at most ``_M0`` entries
the sort is the one that validated the vector, and the two strategies run
the same code, :func:`_cut`, on that ascending copy.  Only the values are
sorted; the shared materialise step marks the cut, ties by ascending index,
so outputs are deterministic and ascending.
"""

from __future__ import annotations

import numpy as np

from .core import (
    AdmissibilityError,
    IndicatorInput,
    MarkingOutcome,
    OpCounter,
    _first_reaching,
    _fsum,
    as_indicators,
    check_theta,
    materialise,
)

__all__ = ["sort_mark"]

# the longest suffix a[lo:] whose sorted cut math.fsum settles: a probe costs
# 17-40 ns per entry, which made boundary inputs of 10^4-10^6 entries run
# 2-3.5 times slower than the float cut (CHANGES.md)
_EXACT_MAX = 1024


def _counted_sort_desc(values: list[float], counter: OpCounter) -> list[float]:
    """The values in descending order by the interpreter's sort, counting comparisons.

    This is the package's one counted twin of a timed kernel, kept on purpose:
    ``np.sort`` exposes no comparison count, and this count is the only
    witness that sorting grows log-linearly while selection stays linear.
    """
    box = [0]

    class _Desc(float):
        def __lt__(self, other: float) -> bool:
            box[0] += 1
            return float.__gt__(self, other)

    desc = sorted(map(_Desc, values))
    counter.add(box[0])
    return desc


def sort_mark(
    x: IndicatorInput, theta: float, counter: OpCounter | None = None
) -> MarkingOutcome:
    """Mark a minimal-cardinality set via sorting.

    Returns the shortest descending prefix that reaches the goal, cut by
    :func:`_cut` over the whole vector, with the cut's value as the
    outcome's ``threshold``.  On at most ``_M0`` entries it cuts the sorted
    copy that validated the vector, and a ``counter`` counts that sort and
    cut as the selection kernel's base case does.
    Above ``_M0`` a ``counter`` runs the interpreter's comparison sort as
    well, counting its comparisons and the length of the cut; the set is
    the same as without one.
    """
    iv = as_indicators(x)
    theta = check_theta(theta)
    goal = iv._goal(theta)
    if iv._sorted is not None:
        x_star, count = _cut(iv._sorted, 0, iv.n, goal, goal, counter=counter)
    else:
        x_star, count = _settle(iv._work.copy(), 0, iv.n, goal, goal)
        if counter is not None:
            _counted_sort_desc(iv.values.tolist(), counter)
            counter.add(count)
    return MarkingOutcome.trusted(iv, materialise(iv._work, x_star, count), x_star)


def _settle(
    a: np.ndarray,
    lo: int,
    hi: int,
    goal: float,
    v: float,
    check: bool = False,
    counter: OpCounter | None = None,
    above: int = 0,
) -> tuple[float, int]:
    """Sort ``a[lo:hi]`` in place and cut it by :func:`_cut`: the threshold and the count."""
    a[lo:hi].sort()
    return _cut(a, lo, hi, goal, v, check, counter, above)


def _cut(
    a: np.ndarray,
    lo: int,
    hi: int,
    goal: float,
    v: float,
    check: bool = False,
    counter: OpCounter | None = None,
    above: int = 0,
) -> tuple[float, int]:
    """Cut the ascending range ``a[lo:hi]`` by the stop rule: the threshold and the count.

    Every entry of ``a[hi:]``, and ``above`` more outside ``a``, is at least
    the range's largest; ``v`` is the residual goal.  When nothing lies
    above ``a`` and ``a[lo:]`` holds at most ``_EXACT_MAX`` entries, the cut
    takes the ``j + 1`` largest entries of the range for the first ``j``
    whose correctly rounded sum with ``a[hi:]`` reaches ``goal``: the float
    mass of ``a[hi:]`` joins the range's prefix sums, and ``math.fsum``
    settles those within rounding of the goal, each probe in one pass over
    ``a[hi - 1 - j:]``.  Otherwise the range's float prefix sums decide
    against ``v``.  Either cut takes the whole range when no prefix reaches
    the goal, so rounding cannot empty it.  Returns
    ``(a[k], a.size - k + above)`` at the cut's rank ``k``; ``a`` is only
    read.  With ``check`` the exact cut is verified against the rule.  A
    ``counter`` gets ``m * ceil(log2 m)`` for the sort of the ``m`` entries
    plus the length of the cut.
    """
    prefix = np.add.accumulate(a[lo:hi][::-1])
    m = hi - lo
    exact = not above and a.size - lo <= _EXACT_MAX
    if exact:
        if hi < a.size:
            prefix += np.add.reduce(a[hi:])
        j = _first_reaching(prefix, goal, a.size - lo, lambda j: _fsum(a[hi - 1 - j :]))
    else:
        j = int(prefix.searchsorted(v))
    j = min(j, m - 1)
    k = hi - 1 - j
    if counter is not None:
        counter.add(m * (m - 1).bit_length() + j + 1)
    if check and exact:
        _verify_base(a, lo, hi, k, goal)
    return a.item(k), a.size - k + above


def _verify_base(a, lo, hi, k, goal) -> None:
    if not np.all(a[lo : hi - 1] <= a[lo + 1 : hi]):
        raise AdmissibilityError("base range not sorted")
    if k > lo and not _fsum(a[k:]) >= goal:
        raise AdmissibilityError("base cut misses the goal")
    if k + 1 < hi and _fsum(a[k + 1 :]) >= goal:
        raise AdmissibilityError("a shorter base cut reaches the goal")

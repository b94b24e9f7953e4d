"""Minimal marking by full descending sort and prefix sums.

This is the classical log-linear reference strategy: sort the indicators in
descending order, accumulate prefix sums and cut at the first prefix reaching
the goal value.  The returned cardinality is provably minimal, which makes
this routine the correctness oracle for the linear-time selection strategy.

Only the values are sorted; the shared materialise step marks the cut, ties
by ascending index, so outputs are deterministic and ascending.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    IndicatorInput,
    MarkingOutcome,
    OpCounter,
    as_indicators,
    check_theta,
    goal_value,
    materialise,
    overflow_guard,
)

__all__ = ["SortedPrefix", "sorted_prefix", "sort_mark"]


@dataclass(frozen=True, eq=False)
class SortedPrefix:
    """Indicator values in descending order and their prefix sums.

    ``prefix_sums[i]`` is the sum of the ``i + 1`` largest entries, accumulated
    left to right.
    """

    values: np.ndarray
    prefix_sums: np.ndarray


def sorted_prefix(x: IndicatorInput, counter: OpCounter | None = None) -> SortedPrefix:
    """Sort the values descending and accumulate prefix sums.

    With a counter the interpreter's comparison sort runs, so that its
    comparisons are counted; numpy's sort gives the identical values.
    """
    iv = as_indicators(x)
    if counter is None:
        desc = np.sort(iv.values)[::-1]
    else:
        desc = np.array(_counted_sort_desc(iv.values.tolist(), counter))
    with overflow_guard(iv.total()):
        prefix = np.cumsum(desc)
    return SortedPrefix(values=desc, prefix_sums=prefix)


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

    Returns the shortest descending prefix whose sum reaches the goal value.
    """
    iv = as_indicators(x)
    check_theta(theta)
    sp = sorted_prefix(iv, counter)
    v = goal_value(iv, theta)
    cut = int(np.searchsorted(sp.prefix_sums, v, side="left"))
    # theta < 1 guarantees the goal is reachable; the clamp only absorbs
    # last-ulp accumulation shortfall of the full prefix.
    n = min(cut, iv.n - 1) + 1
    if counter is not None:
        counter.add(n)
    return MarkingOutcome.trusted(iv, materialise(iv.values, float(sp.values[n - 1]), n))

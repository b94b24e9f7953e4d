"""Minimal marking by full descending sort and prefix sums.

This is the classical log-linear reference strategy: sort the indicators in
descending order, accumulate prefix sums and cut at the first prefix reaching
the goal value.  The returned cardinality is provably minimal, which makes
this routine the correctness oracle for the linear-time selection strategy.

Ties are broken by ascending original index (stable sort), so outputs are
deterministic.
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
    overflow_guard,
)

__all__ = ["SortedPrefix", "sorted_prefix", "sort_mark"]


@dataclass(frozen=True, eq=False)
class SortedPrefix:
    """Descending order permutation and its prefix sums.

    ``prefix_sums[i]`` is the sum of the ``i + 1`` largest entries, accumulated
    left to right.
    """

    order: np.ndarray
    prefix_sums: np.ndarray


def sorted_prefix(x: IndicatorInput, counter: OpCounter | None = None) -> SortedPrefix:
    """Sort descending (ties by ascending index) and accumulate prefix sums.

    With a counter, sorting runs through the interpreter's comparison sort so
    element comparisons can be counted; without one, numpy's stable argsort is
    used.  Both produce the identical permutation.
    """
    iv = as_indicators(x)
    if counter is None:
        order = np.argsort(-iv.values, kind="stable")
    else:
        order = np.asarray(_counted_sort_desc(iv.values.tolist(), counter), dtype=np.int64)
    with overflow_guard(iv.n, iv.max_value()):
        prefix = np.cumsum(iv.values[order])
    return SortedPrefix(order=order, prefix_sums=prefix)


def _counted_sort_desc(values: list[float], counter: OpCounter) -> list[int]:
    """The descending stable order by the interpreter's sort, counting comparisons.

    This is the package's one counted twin of a timed kernel, kept on purpose:
    ``np.argsort`` exposes no comparison count, and this count is the only
    witness that sorting grows log-linearly while selection stays linear.
    """
    box = [0]

    class _Desc:
        __slots__ = ("v",)

        def __init__(self, v: float) -> None:
            self.v = v

        def __lt__(self, other: "_Desc") -> bool:
            box[0] += 1
            return self.v > other.v

    keys = [_Desc(v) for v in values]
    order = sorted(range(len(values)), key=keys.__getitem__)
    counter.add(box[0])
    return order


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
    return MarkingOutcome.trusted(iv, sp.order[:n].copy())

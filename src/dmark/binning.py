"""Quasi-minimal linear-cost marking by geometric binning.

Indicators are grouped by their ratio to the maximum into geometrically
shrinking ranges ``nu**(k+1) < x/max <= nu**k`` for ``k = 0, ..., K``, with a
tail bin collecting the rest.  Concatenating the bins approximates a
descending sort well enough that cutting the concatenation at the goal value
yields a set of cardinality at most ``ceil(N_min / nu)`` at cost O(N + K).

Bin boundaries are compared on the exact powers of ``nu`` (computed by
repeated multiplication, never through logarithms), so boundary values land
deterministically: a ratio equal to ``nu**k`` belongs to bin ``k``, one equal
to ``nu**(k+1)`` to bin ``k+1``.  Within a bin, indices stay in ascending
original order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    IndicatorInput,
    MarkingOutcome,
    OpCounter,
    as_indicators,
    check_nu,
    check_theta,
    goal_value,
)

__all__ = ["BinLayout", "binning_depth", "bin_layout", "binning_mark"]

# size of binning_mark's first prefix-sum chunk (each later one doubles): up to
# this size it makes one gather and one cumsum, as a whole-array prefix would
_FIRST_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class BinLayout:
    """Partition of the index set into geometric bins plus a tail.

    ``bins[k]`` for ``k <= depth`` holds the indices with ratio in
    ``(nu**(k+1), nu**k]``; ``bins[depth + 1]`` is the tail.
    """

    depth: int
    bins: tuple[np.ndarray, ...]
    max_value: float


def binning_depth(x: IndicatorInput, theta: float, nu: float) -> int:
    """Smallest K with ``nu**(K+1) * max(x) <= (1 - theta) * sum(x) / N``."""
    iv = as_indicators(x)
    check_theta(theta)
    check_nu(nu)
    bound = (1.0 - theta) * iv.total() / iv.n
    m_max = iv.max_value()
    depth = 0
    power = nu
    while power * m_max > bound:
        depth += 1
        power *= nu
    return depth


def bin_layout(
    x: IndicatorInput, theta: float, nu: float, counter: OpCounter | None = None
) -> BinLayout:
    iv = as_indicators(x)
    depth = binning_depth(iv, theta, nu)
    if counter is not None:
        counter.add(depth + 1)

    m_max = iv.max_value()
    ratios = iv.values / m_max
    # ascending boundary list nu**(depth+1), ..., nu**1; built by repeated
    # multiplication so bin membership uses the exact power values
    powers = [1.0]
    for _ in range(depth + 1):
        powers.append(powers[-1] * nu)
    ascending = np.asarray(powers[1:][::-1], dtype=np.float64)

    position = np.searchsorted(ascending, ratios, side="left")
    if counter is not None:
        counter.add(int(np.bincount(position, minlength=depth + 2) @ _bisect_steps(depth + 1)))
    bin_of = (depth + 1) - position

    # stable integer sort groups indices by bin while keeping ascending
    # original order inside each bin; labels of 16 bits or fewer make it a
    # linear-time radix sort
    bin_of = bin_of.astype(np.min_scalar_type(depth + 1))
    order = np.argsort(bin_of, kind="stable")
    counts = np.bincount(bin_of, minlength=depth + 2)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    bins = tuple(
        order[offsets[k] : offsets[k + 1]] for k in range(depth + 2)
    )
    return BinLayout(depth=depth, bins=bins, max_value=m_max)


def _bisect_steps(size: int) -> np.ndarray:
    """Comparisons of a binary search over ``size`` sorted boundaries, per landing position.

    A left bisection compares ``boundary[mid] < r``, which holds exactly when
    ``mid`` lies below the position it returns, so its path and length are a
    function of that position alone.
    """
    steps = np.zeros(size + 1, dtype=np.int64)
    for pos in range(size + 1):
        lo, hi = 0, size
        while lo < hi:
            mid = (lo + hi) // 2
            steps[pos] += 1
            if mid < pos:
                lo = mid + 1
            else:
                hi = mid
    return steps


def binning_mark(
    x: IndicatorInput, theta: float, nu: float, counter: OpCounter | None = None
) -> MarkingOutcome:
    """Mark by cutting the bin concatenation at the goal value.

    The result satisfies the criterion with cardinality at most
    ``ceil(N_min / nu)``.
    """
    iv = as_indicators(x)
    layout = bin_layout(iv, theta, nu, counter)
    concatenated = np.concatenate(layout.bins)
    v = goal_value(iv, theta)
    # prefix sums of the concatenation in doubling chunks, up to the chunk
    # that reaches the goal; cumsum adds sequentially, so continuing from the
    # carry gives the floats of one cumsum over the whole concatenation
    start, stop = 0, _FIRST_CHUNK
    prefix = np.cumsum(iv.values[concatenated[:stop]])
    while prefix[-1] < v and stop < iv.n:
        start, stop = stop, 2 * stop
        prefix = np.cumsum(np.concatenate((prefix[-1:], iv.values[concatenated[start:stop]])))[1:]
    cut = start + int(np.searchsorted(prefix, v, side="left"))
    n = min(cut, iv.n - 1) + 1
    if counter is not None:
        counter.add(n)
    return MarkingOutcome.trusted(iv, concatenated[:n].copy())

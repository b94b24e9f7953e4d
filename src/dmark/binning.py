"""Quasi-minimal marking by geometric binning.

Indicators are labelled by their ratio to the maximum, with geometrically
shrinking ranges ``nu**(k+1) < x/max <= nu**k`` for ``k = 0, ..., K`` and a
tail label for the rest.  Walking the bins in order, each in ascending
index order, approximates a descending sort well enough that cutting the
walk at the goal value yields a set of cardinality at most
``ceil(N_min / nu)``.  Labelling bisects the ``K + 1`` boundaries, so the
cost is O(N log K + K).

Bin boundaries are the exact powers of ``nu`` (repeated multiplication,
never logarithms): a ratio equal to ``nu**k`` belongs to bin ``k``, one
equal to ``nu**(k+1)`` to bin ``k+1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    IndicatorInput,
    MarkingOutcome,
    OpCounter,
    _exact_sum,
    _first_reaching,
    as_indicators,
    check_nu,
    check_theta,
    goal_value,
    overflow_guard,
)

__all__ = ["BinLayout", "binning_depth", "bin_layout", "binning_mark"]


@dataclass(frozen=True, eq=False)
class BinLayout:
    """Bin label of every index: geometric bins plus a tail.

    ``labels[i] == k`` for ``k <= depth`` when index ``i`` has ratio in
    ``(nu**(k+1), nu**k]``, and ``depth + 1`` for the tail.  The labels use
    the narrowest unsigned integer type that holds ``depth + 1``.
    """

    depth: int
    labels: np.ndarray
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
    labels = ((depth + 1) - position).astype(np.min_scalar_type(depth + 1))
    return BinLayout(depth=depth, labels=labels, max_value=m_max)


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
    """Mark by cutting the bin walk at the goal value, without ordering the bins.

    The bin masses give the cut bin, the first whose correctly rounded prefix
    mass reaches the goal, and the cut inside it is the first index-order
    prefix that reaches it, by the stop rule decrement shares (see
    :mod:`dmark.core`); when none does, every index is marked.  ``marked``
    is ascending, with cardinality at most ``ceil(N_min / nu)``.
    """
    iv = as_indicators(x)
    layout = bin_layout(iv, theta, nu, counter)
    values, labels = iv.values, layout.labels
    v = goal_value(iv, theta)
    # bincount adds each bin in index order; with the cumsums no float sum
    # below has more than this many additions
    m = iv.n + layout.depth + 2
    with overflow_guard(iv.n, iv.max_value()):
        masses = np.cumsum(np.bincount(labels, weights=values))
        j = _first_reaching(
            masses, v, m, lambda k: _exact_sum(values, [np.flatnonzero(labels <= k)])
        )
        members = np.flatnonzero(labels == j)
        prefix = np.cumsum(values[members]) + (masses[j - 1] if j else 0.0)
    taken = labels < j
    stop = _first_reaching(
        prefix, v, m, lambda i: _exact_sum(values, [np.flatnonzero(taken), members[: i + 1]])
    )
    taken[members[: stop + 1]] = True
    marked = np.flatnonzero(taken)
    if counter is not None:
        counter.add(marked.size)
    return MarkingOutcome.trusted(iv, marked)

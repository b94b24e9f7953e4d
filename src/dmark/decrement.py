"""Sorting-free marking by linearly decreasing thresholds.

The strategy sweeps the indicators with thresholds ``(1 - k*nu) * max(x)`` for
``k = 1, ..., ceil(1/nu)``, appending every not-yet-selected entry that
strictly exceeds the current threshold, and stops as soon as the running sum
of selected entries reaches the goal value.  The output always satisfies the
marking criterion at cost O(N / nu), but its cardinality can exceed any fixed
multiple of the minimum (see :mod:`dmark.oracle` for a witness family), so
this routine is kept as a reference only.

Each sweep is one numpy pass: a mask of its candidates and a ``cumsum`` of
their values.  The sweep stops at the first prefix whose correctly rounded
sum ``fl(sum of the selected doubles)`` reaches the goal, by the stop rule
that binning shares (see :mod:`dmark.core`), so the stop depends only on
the selected set, not on the order of summation.
"""

from __future__ import annotations

import math
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

__all__ = ["DecrementState", "decrement_mark", "decrement_trace", "sweep_limit"]


@dataclass(frozen=True)
class DecrementState:
    """Final sweep state, exposed for verification.

    ``outcome.marked`` lists the selected indices in selection order; the
    threshold in sweep ``k`` is ``(1 - k*nu) * max(x)``.
    """

    outcome: MarkingOutcome
    sweeps_used: int


def sweep_limit(nu: float) -> int:
    """``ceil(1/nu)`` evaluated exactly on the binary value of ``nu``."""
    check_nu(nu)
    num, den = nu.as_integer_ratio()
    return -(-den // num)


def decrement_mark(
    x: IndicatorInput, theta: float, nu: float, *, counter: OpCounter | None = None
) -> MarkingOutcome:
    """Mark by threshold decrements; satisfies the criterion, not quasi-minimal."""
    return _decrement(x, theta, nu, counter)[0]


def decrement_trace(x: IndicatorInput, theta: float, nu: float) -> DecrementState:
    """Run the sweep and return the outcome with the number of sweeps used."""
    return DecrementState(*_decrement(x, theta, nu, None))


def _decrement(x, theta, nu, counter) -> tuple[MarkingOutcome, int]:
    """Validate, run the sweeps and return the outcome and the sweeps used."""
    iv = as_indicators(x)
    check_theta(theta)
    check_nu(nu)
    with overflow_guard(iv.total()):
        selection, sweeps_used = _sweeps(
            iv.values, goal_value(iv, theta), iv.max_value(), nu, sweep_limit(nu), counter
        )
    return MarkingOutcome.trusted(iv, selection), sweeps_used


def _sweeps(
    x: np.ndarray,
    v: float,
    m_max: float,
    nu: float,
    sweeps: int,
    counter: OpCounter | None,
) -> tuple[np.ndarray, int]:
    """Run the sweeps; return the selection and the sweeps used.

    The thresholds ``t_k`` do not increase and a sweep that does not stop
    takes all its candidates, so the candidates of sweep ``k`` are the
    entries in ``(t_k, t_{k-1}]`` (``t_0 = inf``), in index order.  A
    ``counter`` gets, per sweep, the free entries up to the last position
    visited (one threshold comparison each) plus one stop test per
    selection.
    """
    parts: list[np.ndarray] = []
    taken = 0
    running = 0.0
    above_prev = np.zeros(x.size, dtype=bool)
    for k in range(1, sweeps + 1):
        above = x > (1.0 - k * nu) * m_max
        # above_prev is a subset of above, so xor keeps (t_k, t_{k-1}]
        candidates = np.flatnonzero(above ^ above_prev)
        prefix = np.cumsum(x[candidates])
        prefix += running
        stop = candidates.size
        if math.isfinite(v) and candidates.size:
            stop = _first_reaching(
                prefix, v, taken + candidates.size,
                lambda j: _exact_sum(x, parts + [candidates[: j + 1]]),
            )
        if stop == candidates.size:
            take, last = candidates.size, x.size - 1
        else:
            take, last = stop + 1, int(candidates[stop])
        if counter is not None:
            free = last + 1 - int(np.count_nonzero(above_prev[: last + 1]))
            counter.add(free + take)
        parts.append(candidates[:take])
        taken += take
        if take:
            running = float(prefix[take - 1])
        if stop < candidates.size:
            return np.concatenate(parts), k
        above_prev = above
    # Exhausting the sweeps without reaching the goal (only through last-ulp
    # shortfall for theta near 1, or an overflowed goal) selects every entry
    # above the last threshold, which satisfies the criterion by definition.
    return np.concatenate(parts), sweeps

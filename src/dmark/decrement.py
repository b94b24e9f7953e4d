"""Sorting-free marking by linearly decreasing thresholds.

The strategy sweeps the indicators with thresholds ``(1 - k*nu) * max(x)`` for
``k = 1, ..., ceil(1/nu)``, appending every not-yet-selected entry that
strictly exceeds the current threshold, and stops as soon as the running sum
of selected entries reaches the goal value.  The output always satisfies the
marking criterion at cost O(N / nu), but its cardinality can exceed any fixed
multiple of the minimum (see :mod:`dmark.oracle` for a witness family), so
this routine is kept as a reference only.

The running sum is updated incrementally with Neumaier compensation so that
termination decisions match exact arithmetic on the stored floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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

__all__ = ["DecrementState", "decrement_mark", "decrement_trace", "sweep_limit"]


@dataclass(frozen=True)
class DecrementState:
    """Final sweep state, exposed for verification.

    ``selection`` lists the selected indices in selection order; the threshold
    in sweep ``k`` is ``(1 - k*nu) * max_value``.
    """

    selected_count: int
    selection: tuple[int, ...]
    max_value: float
    sweeps_used: int
    running_sum: float


def sweep_limit(nu: float) -> int:
    """``ceil(1/nu)`` evaluated exactly on the binary value of ``nu``."""
    check_nu(nu)
    return math.ceil(Fraction(1) / Fraction(nu))


def decrement_mark(
    x: IndicatorInput,
    theta: float,
    nu: float,
    *,
    legacy_sweep_termination: bool = False,
    counter: OpCounter | None = None,
) -> MarkingOutcome:
    """Mark by threshold decrements; satisfies the criterion, not quasi-minimal.

    With ``legacy_sweep_termination`` the stopping test runs only after each
    complete sweep instead of after each selection.  That variant degenerates
    to marking everything on constant vectors and exists solely to demonstrate
    the failure mode; it is not a supported strategy.
    """
    outcome, _ = _run(x, theta, nu, legacy_sweep_termination, counter)
    return outcome


def decrement_trace(
    x: IndicatorInput,
    theta: float,
    nu: float,
    *,
    legacy_sweep_termination: bool = False,
) -> DecrementState:
    """Run the sweep and return the final state instead of the outcome."""
    _, state = _run(x, theta, nu, legacy_sweep_termination, None)
    return state


def _run(
    x: IndicatorInput,
    theta: float,
    nu: float,
    legacy: bool,
    counter: OpCounter | None,
) -> tuple[MarkingOutcome, DecrementState]:
    iv = as_indicators(x)
    check_theta(theta)
    check_nu(nu)

    values = iv.values.tolist()
    v = goal_value(iv, theta)
    m_max = iv.max_value()
    sweeps = sweep_limit(nu)

    selection, sweeps_used, total = _sweeps(values, v, m_max, nu, sweeps, legacy, counter)

    state = DecrementState(
        selected_count=len(selection),
        selection=tuple(selection),
        max_value=m_max,
        sweeps_used=sweeps_used,
        running_sum=total,
    )
    return MarkingOutcome.trusted(iv, np.array(selection, dtype=np.int64)), state


def _sweeps(
    values: list[float],
    v: float,
    m_max: float,
    nu: float,
    sweeps: int,
    legacy: bool,
    counter: OpCounter | None,
) -> tuple[list[int], int, float]:
    """Run the sweeps; a ``counter`` gets the threshold and stop comparisons.

    The count is derived once per sweep from the loop's own state: the sweep
    compares every entry up to the last visited position ``i`` that was not
    selected before it, and makes one stop test per selection (one per sweep
    in legacy mode).
    """
    n_total = len(values)
    selected = bytearray(n_total)
    selection: list[int] = []
    s = 0.0
    c = 0.0
    sweeps_used = 0
    done = False
    for k in range(1, sweeps + 1):
        sweeps_used = k
        threshold = (1.0 - k * nu) * m_max
        before = len(selection)
        for i in range(n_total):
            if selected[i]:
                continue
            xi = values[i]
            if xi > threshold:
                selected[i] = 1
                selection.append(i)
                t = s + xi
                if s >= xi:
                    c += (s - t) + xi
                else:
                    c += (xi - t) + s
                s = t
                if not legacy and s + c >= v:
                    done = True
                    break
        if counter is not None:
            new = len(selection) - before
            counter.add((i + 1) - selected[: i + 1].count(1) + new + (1 if legacy else new))
        if legacy and s + c >= v:
            done = True
        if done:
            break
    # Exhausting the sweeps without reaching the goal (possible only through
    # last-ulp shortfall for theta near 1) leaves all positive entries
    # selected, which satisfies the criterion by definition.
    return selection, sweeps_used, s + c

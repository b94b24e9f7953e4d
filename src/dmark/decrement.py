"""Sorting-free marking by linearly decreasing thresholds.

The strategy sweeps the indicators with thresholds ``(1 - k*nu) * max(x)`` for
``k = 1, ..., ceil(1/nu)``, appending every not-yet-selected entry that
strictly exceeds the current threshold, and stops as soon as the running sum
of selected entries reaches the goal value.  The output always satisfies the
marking criterion at cost O(N / nu), but its cardinality can exceed any fixed
multiple of the minimum (see :mod:`dmark.oracle` for a witness family), so
this routine is kept as a reference only.

Each sweep is one numpy pass up to its stop: it walks the vector in blocks
of index order, masks each block's candidates and prefix-sums their values,
and reads no block past the one that holds the stop.  The sweep stops at the
first prefix whose correctly rounded sum ``fl(sum of the selected doubles)``
reaches the goal, by the stop rule that binning shares (see
:mod:`dmark.core`), so the stop depends only on the selected set, not on the
order of summation or on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EPS,
    IndicatorInput,
    MarkingOutcome,
    OpCounter,
    ParameterError,
    _exact_sum,
    _first_reaching,
    as_indicators,
    check_nu,
    check_theta,
)

__all__ = ["DecrementState", "MAX_SWEEPS", "decrement_mark", "decrement_trace", "sweep_limit"]

# the most sweeps run, ceil(1/nu) for nu = 2**-20; below nu of about 2**-53
# the first thresholds (1 - k*nu) * max round to max and select nothing
MAX_SWEEPS = 2**20

# entries per block of a sweep: on the 10^6-entry benchmark instances 2^15
# took 0.92-0.99x the time of 2^14, 2^16 and 2^17, and 2^12 1.2x that of 2^16
_BLOCK = 2**15


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
    nu = check_nu(nu)
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
    theta, nu = check_theta(theta), check_nu(nu)
    sweeps = sweep_limit(nu)
    if sweeps > MAX_SWEEPS:
        raise ParameterError(f"nu = {nu!r} needs more than {MAX_SWEEPS} sweeps; choose a larger nu")
    selection, sweeps_used = _sweeps(iv._work, iv._goal(theta), iv._max, nu, sweeps, counter)
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
    entries in ``(t_k, t_{k-1}]`` (``t_0 = inf``), in index order.  Each
    sweep walks the blocks of ``_BLOCK`` entries in order, keeps each
    block's mask for the next sweep, and carries one float running sum of
    the selection in selection order; a block runs the stop rule only when
    its last prefix lies within the rule's window below ``v``, and the
    sweep returns at the block that holds the stop.  A ``counter`` gets,
    per block, the free entries up to the last position visited (one
    threshold comparison each) plus one stop test per selection.
    """
    blocks = [(a, x[a : a + _BLOCK]) for a in range(0, x.size, _BLOCK)]
    masks: list[np.ndarray | None] = [None] * len(blocks)
    parts: list[np.ndarray] = []
    taken = 0
    running = 0.0
    for k in range(1, sweeps + 1):
        t = (1.0 - k * nu) * m_max
        for b, (a, xb) in enumerate(blocks):
            prev = masks[b]
            masks[b] = above = xb > t
            # prev is a subset of above, so xor keeps (t_k, t_{k-1}]
            candidates = np.flatnonzero(above if prev is None else above ^ prev)
            if a:
                candidates += a
            stop = size = candidates.size
            if size:
                prefix = x.take(candidates)
                prefix[0] += running
                prefix.cumsum(out=prefix)
                running = prefix.item(-1)
                # below the rule's window no prefix of the block reaches v
                if running >= v * (1.0 - 2.0 * (taken + size + 1) * EPS):
                    stop = _first_reaching(
                        prefix, v, taken + size,
                        lambda j: _exact_sum(x, parts + [candidates[: j + 1]]),
                    )
            if counter is not None:
                end = xb.size if stop == size else int(candidates[stop]) + 1 - a
                free = end - (0 if prev is None else int(np.count_nonzero(prev[:end])))
                counter.add(free + min(stop + 1, size))
            if stop < size:
                parts.append(candidates[: stop + 1])
                return np.concatenate(parts), k
            parts.append(candidates)
            taken += size
    # Exhausting the sweeps without reaching the goal (only through last-ulp
    # shortfall for theta near 1) selects every entry above the last
    # threshold, which satisfies the criterion by definition.
    return np.concatenate(parts), sweeps

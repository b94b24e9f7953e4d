"""Quasi-minimal marking by geometric binning.

Indicators are labelled by their ratio to the maximum, with geometrically
shrinking ranges ``nu**(k+1) < x/max <= nu**k`` for ``k = 0, ..., K`` and a
tail label for the rest.  Walking the bins in order, each in ascending
index order, approximates a descending sort well enough that cutting the
walk at the goal value yields a set of cardinality at most
``ceil(N_min / nu)``.  The cost is O(N + K): O(1) per entry, and the
``K + 2`` powers of ``nu``; O(N log K) for ``nu`` within about ``1e-8``
of 1 or below about ``1e-185`` (see :func:`_layout`).

Bin boundaries are the exact powers of ``nu`` (repeated multiplication): a
ratio equal to ``nu**k`` belongs to bin ``k``, one equal to ``nu**(k+1)``
to bin ``k+1``.  The logarithm ``log(x/max) / log(nu)`` estimates each
label; only an entry whose estimate lies within rounding of an integer
``c`` is compared with the power ``nu**c`` itself, so the labels are those
of the exact boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EPS,
    IndicatorInput,
    IndicatorVector,
    MarkingOutcome,
    OpCounter,
    ParameterError,
    _TINY,
    _exact_sum,
    _first_reaching,
    as_indicators,
    check_nu,
    check_theta,
)

__all__ = ["BinLayout", "MAX_DEPTH", "bin_layout", "binning_mark"]

# the deepest layout built; a deeper one needs nu within about 1e-6 of 1,
# its power table alone holds over a million floats, and a sort is cheaper
MAX_DEPTH = 2**20

# error bound of numpy's float64 ``log`` in ulps, four times the tolerance
# of numpy's own accuracy tests for it
_LOG_ULPS = 4
# below half the smallest subnormal a product rounds to 0
_LOG_HALF_SUBNORMAL = -1075 * math.log(2.0)


@dataclass(frozen=True, eq=False)
class BinLayout:
    """Bin label of every index: geometric bins plus a tail.

    ``depth`` is the smallest ``K`` with ``nu**(K+1) * max <= (1 - theta) * sum / N``;
    ``labels[i] == k`` for ``k <= depth`` when index ``i`` has ratio in
    ``(nu**(k+1), nu**k]``, and ``depth + 1`` for the tail.  The labels use
    the narrowest unsigned integer type that holds ``depth + 1``.
    """

    depth: int
    labels: np.ndarray


def _powers(iv: IndicatorVector, theta: float, nu: float) -> list[float]:
    """The bin boundaries ``nu**k`` for ``k = 0, ..., K + 1``, by repeated multiplication.

    ``K`` is predicted before the loop: ``nu**k * max`` falls to the bound
    by ``k = log(bound / max) / log(nu)``, or, when the bound underflowed to
    0, to half the smallest subnormal, where it rounds to 0.  A prediction
    above :data:`MAX_DEPTH` raises :class:`ParameterError`.  Each rounded
    power lies within half an ulp of ``nu`` times the one before, so for
    ``nu`` within a few ulps of 1 the powers may fall up to twice as slowly
    as ``nu**k``; a depth that then ends above the cap raises as well.
    """
    bound = (1.0 - theta) * iv._sum / iv.n
    m_max = iv._max
    if bound > 0.0:
        log_ratio = math.log(bound / m_max)
    else:
        log_ratio = _LOG_HALF_SUBNORMAL - math.log(m_max)
    if log_ratio < MAX_DEPTH * math.log(nu):
        raise _too_deep(nu)
    powers = [1.0, nu]
    while powers[-1] * m_max > bound:
        powers.append(powers[-1] * nu)
    if len(powers) > MAX_DEPTH + 2:
        raise _too_deep(nu)
    return powers


def _too_deep(nu: float) -> ParameterError:
    return ParameterError(
        f"nu = {nu!r} needs more than {MAX_DEPTH} bins on this input; choose a smaller nu"
    )


def bin_layout(x: IndicatorInput, theta: float, nu: float) -> BinLayout:
    iv = as_indicators(x)
    theta = check_theta(theta)
    nu = check_nu(nu)
    return _layout(iv, theta, nu, None)


def _layout(
    iv: IndicatorVector, theta: float, nu: float, counter: OpCounter | None
) -> BinLayout:
    """Label every entry from its logarithm; settle the near-boundary ones exactly.

    The label of a ratio ``r = x/max`` is the largest ``k <= K + 1`` with
    ``r <= nu**k``.  Its float estimate ``log(r) / log(nu)``, at most
    ``K + 2``, lies within ``(K + 2) * (2 * U + 2) * eps`` of the exact
    quotient (``U`` ulps per logarithm, one rounding each for the reciprocal
    and the product); the boundary ``nu**k``, made by ``k`` multiplications,
    lies within ``(k + 1) * eps / |log(nu)|`` of ``k`` in the same units.
    Twice the sum of both errors is ``delta``.  An estimate farther than
    ``delta`` from every integer has the label as its floor; one within
    ``delta`` of an integer ``c`` has label ``c - 1`` or ``c``, and the
    comparison ``r > nu**c`` decides.  Ratios below ``tail``, the middle of
    the tail bin, are lifted to it, so the logarithm stays finite.

    ``delta`` reaches 1/4 only when ``(K + 2) / |log(nu)|`` exceeds about
    ``5e14`` (``nu`` closer to 1 than ``1e-8`` at any depth under ten
    million): the powers then drift across whole bins.  ``tail`` falls
    below the normal doubles only for ``nu`` under about ``1e-185``.  In
    either case no estimate is made: a binary search of the powers gives
    each label from its definition, in ``ceil(log2(K + 3))`` comparisons
    per entry, so these two regimes cost ``O(N log K)``.
    """
    powers = _powers(iv, theta, nu)
    depth = len(powers) - 2
    values, m_max = iv._work, iv._max
    inv_log_nu = 1.0 / math.log(nu)
    delta = 2.0 * (depth + 2) * EPS * (2 * _LOG_ULPS + 2 - inv_log_nu)
    dtype = np.min_scalar_type(depth + 1)
    tail = powers[-1] * math.sqrt(nu)
    if delta >= 0.25 or tail < _TINY:
        # the negated powers ascend; the last one not above -r is the label
        search = np.negative(powers).searchsorted(values / -m_max, side="right")
        labels = (search - 1).astype(dtype)
        compared = iv.n * (depth + 2).bit_length()
    else:
        # one scratch array holds the ratio, its logarithm, the shifted
        # estimate and its fraction in turn
        est = values / m_max
        np.maximum(est, tail, out=est)
        np.log(est, out=est)
        est *= inv_log_nu
        # shifted down by delta, an estimate near c has a fraction of at
        # least 1 - 2 * delta below c; truncation takes the floor, and gives
        # 0 to the estimates of ratios near 1, which fall just below 0
        est -= delta
        labels = est.astype(dtype)
        est -= labels
        near = (est >= 1.0 - 2.0 * delta).nonzero()[0]
        if near.size:
            c = labels[near] + 1
            labels[near] = c - (values[near] / m_max > np.array(powers)[c])
        # an estimate and a near test per entry, and the settling comparisons
        compared = 2 * iv.n + near.size
    if counter is not None:
        counter.add(depth + 1 + compared)
    return BinLayout(depth=depth, labels=labels)


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
    theta = check_theta(theta)
    nu = check_nu(nu)
    layout = _layout(iv, theta, nu, counter)
    values, labels = iv._work, layout.labels
    v = iv._goal(theta)
    # bincount adds each bin in index order; with the cumsums no float sum
    # below has more than this many additions
    m = iv.n + layout.depth + 2
    masses = np.bincount(labels, weights=values).cumsum()
    j = _first_reaching(
        masses, v, m, lambda k: _exact_sum(values, [(labels <= k).nonzero()[0]])
    )
    members = (labels == j).nonzero()[0]
    prefix = values[members].cumsum() + (masses[j - 1] if j else 0.0)
    taken = labels < j
    stop = _first_reaching(
        prefix, v, m, lambda i: _exact_sum(values, [taken.nonzero()[0], members[: i + 1]])
    )
    taken[members[: stop + 1]] = True
    marked = taken.nonzero()[0]
    if counter is not None:
        counter.add(marked.size)
    return MarkingOutcome.trusted(iv, marked)

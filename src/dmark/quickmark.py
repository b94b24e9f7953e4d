"""Minimal-cardinality marking in linear time by selection-style recursion.

The value kernel reorders a scratch copy of the indicators in place.  At each
level it partitions the active range of ``m`` entries around the value of
its lower median rank ``(m - 1) // 2``, then either recurses into the part
above the rank (it already covers the goal), stops at the rank (the rank's
value closes the gap), or recurses into the part below with the goal
reduced by the mass it skips.  A range of at most ``_M0`` entries is
finished in one step: sorted in place, it is cut at the first of its
descending prefixes whose correctly rounded sum, together with the mass
fixed above the range, reaches the goal (the stop rule that ``binning``
and ``decrement`` share, ``core._first_reaching``), clamped to the range.
The rule runs while the range and the mass above it hold at most
``_EXACT_MAX`` entries; below a longer suffix a ``math.fsum`` pass over it
would cost more than the whole kernel, so the range's float prefix sums
decide against the residual goal instead, as every level above does.
The kernel returns the threshold ``x_star`` and the cut ``count``, the
cardinality of the marked set; one materialise step turns the two into the
index set.  Each step halves the range, numpy's introselect partitions it
in worst-case linear time and the base case sorts a constant number of
entries, giving worst-case linear total cost; the returned set has minimal
cardinality for every input whose sums do not sit within rounding of the
goal, and on at most ``_M0`` entries it is the rule's cut.

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
``m * ceil(log2 m)`` for the base case's sort of ``m`` entries plus the
length of its cut, and the filter's ``N`` comparisons and ``m`` summands,
so the counted cost is the cost of the code that is timed.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    EPS,
    AdmissibilityError,
    IndicatorInput,
    IndicatorVector,
    MarkingOutcome,
    OpCounter,
    _TINY,
    _exact_sum,
    _first_reaching,
    _fsum,
    as_indicators,
    check_theta,
    criterion_tolerance,
    materialise,
    overflow_guard,
    pairwise_sum,
    total_and_max,
)
from .oracle import is_valid_minimal_set

__all__ = ["quickmark", "xstar_kernel"]

# entries in the strided sample, and the smallest N whose mark() call the
# sample and the filter make cheaper (crossover measured in CHANGES.md)
_SAMPLE = 4096
_MIN_N = 32768
# the largest range the kernel sorts instead of partitioning (sweep in CHANGES.md)
_M0 = 128
# the longest suffix a[lo:] whose base case math.fsum settles: a probe costs
# 17-40 ns per entry, which made boundary inputs of 10^4-10^6 entries run
# 2-3.5 times slower than the float cut (CHANGES.md)
_EXACT_MAX = 1024


def quickmark(
    x: IndicatorInput,
    theta: float,
    *,
    counter: OpCounter | None = None,
    check_invariants: bool = False,
) -> MarkingOutcome:
    """Minimal-cardinality marking by median-partition recursion.

    The value kernel runs on the candidates above a sampled lower bound of
    ``x_star``, or on a scratch copy of every entry when the bound does not
    hold (see the module docstring), and one materialise step builds the
    set; the outcome's ``threshold`` is the kernel's ``x_star``, and a
    ``counter`` counts the filter's and the kernel's element operations.
    ``check_invariants`` re-verifies the range ordering, goal consistency and
    goal reachability at every level, the base case's cut against the stop
    rule, the dominance and removal-minimality of the final set, and that
    the candidates hold every entry above their bound and carry the goal
    exactly (debug mode; raises :class:`AdmissibilityError` on any
    violation, which would indicate a bug).
    """
    iv = as_indicators(x)
    check_theta(theta)
    return _quickmark(iv, theta, counter, criterion_tolerance(iv) if check_invariants else None)


def _quickmark(
    iv: IndicatorVector,
    theta: float,
    counter: OpCounter | None = None,
    tol: float | None = None,
) -> MarkingOutcome:
    """The body of :func:`quickmark` on a validated vector and ``0 < theta < 1``."""
    goal = theta * iv.total()
    with overflow_guard(iv.total()):
        cut = _candidates(iv.values, theta, goal, tol, counter)
        if cut is None:
            x_star, count = _select(iv.scratch_copy(), goal, tol, counter)
            marked = materialise(iv.values, x_star, count)
        else:
            idx, scratch = cut
            x_star, count = _select(scratch, goal, tol, counter)
            # the candidates in index order again, in the kernel's buffer,
            # which is released before the marked indices are allocated
            at_least = iv.values.take(idx, out=scratch, mode="clip") >= x_star
            del cut, scratch
            marked = materialise(iv.values, x_star, count, idx.compress(at_least))
        outcome = MarkingOutcome(marked, pairwise_sum(iv.values[marked]), int(marked.size), x_star)
        if tol is not None:
            _verify_cut(iv, outcome, goal)
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
    tol: float | None = None,
    counter: OpCounter | None = None,
) -> tuple[float, int]:
    """Destructive value kernel: threshold ``x_star`` and cut ``count``.

    Reorders ``a`` in place so that ``a[:k] <= x_star == a[k] <= a[k:]`` at
    the stopping rank ``k`` and returns ``(a[k], N - k)``: the ``count``
    largest values carry the goal ``v`` and the ``count - 1`` largest do not.
    Each level partitions the active range of ``m`` entries around its lower
    median rank ``(m - 1) // 2``.  A range of at most ``_M0`` entries goes to
    the base case, :func:`_settle`, which sorts it and cuts it by the shared
    stop rule (by its float prefix sums below a long suffix), clamped to the
    range, so rounding that leaves the residual goal above the range mass
    cannot empty the range.  With ``tol`` every level is checked against the
    goal with that slack, and the base case's exact cut against the rule.
    A ``counter`` gets, per level, the elements partitioned plus the
    elements summed above the rank, and for the base case
    ``m * ceil(log2 m)`` plus the length of its cut.
    """
    n_total = int(a.size)
    goal = v
    # the float mass of a[hi:]; an inf (overflowed) goal is compared with
    # it, a finite one is reduced to the residual ``v`` instead, which
    # misses N_min less often at 10^4-10^5 entries than ``fixed + s >= goal``
    lo, hi, fixed = 0, n_total, 0.0
    inf_goal = v == math.inf
    while True:
        if tol is not None:
            _verify_level(a, lo, hi, v, goal, tol, fixed if inf_goal else 0.0)
        m = hi - lo
        if m <= _M0:
            return _settle(a, lo, hi, goal, v, fixed, tol is not None, counter)
        r = (m - 1) // 2
        k = lo + r
        a[lo:hi].partition(r)
        pv = float(a[k])
        s = float(np.add.reduce(a[k + 1 : hi]))
        upper = fixed + s if inf_goal else s
        if counter is not None:
            counter.add(m + (hi - k - 1))
        if upper >= v:
            lo = k + 1
        elif upper + pv >= v:
            return pv, n_total - k
        else:
            if not inf_goal:
                v -= upper + pv
            fixed = (fixed + s) + pv
            hi = k


def _settle(
    a: np.ndarray,
    lo: int,
    hi: int,
    goal: float,
    v: float,
    fixed: float,
    check: bool = False,
    counter: OpCounter | None = None,
) -> tuple[float, int]:
    """Base case of :func:`_select`: sort ``a[lo:hi]`` and cut it by the stop rule.

    ``fixed`` is the float mass of ``a[hi:]``, every entry of which is at
    least the range's largest, and ``v`` the residual goal.  While ``a[lo:]``
    holds at most ``_EXACT_MAX`` entries (or the goal overflowed) the cut
    takes the ``j + 1`` largest entries of the range for the first ``j``
    whose correctly rounded sum together with ``a[hi:]`` reaches ``goal``;
    ``math.fsum`` settles only the prefixes within rounding of the goal,
    each probe in one pass over the suffix ``a[hi - 1 - j:]``.  On a longer
    suffix the float prefix sums of the range decide against ``v``, as the
    levels above do.  Either cut takes the whole range when no prefix
    reaches the goal.  With ``check`` the exact cut is verified against the
    rule.
    """
    seg = a[lo:hi]
    seg.sort()
    prefix = np.add.accumulate(seg[::-1])
    m = hi - lo
    exact = a.size - lo <= _EXACT_MAX or v == math.inf
    if exact:
        if fixed:
            prefix += fixed
        j = _first_reaching(prefix, goal, a.size - lo, lambda j: _fsum(a[hi - 1 - j :]))
    else:
        j = int(prefix.searchsorted(v))
    j = min(j, m - 1)
    k = hi - 1 - j
    if counter is not None:
        counter.add(m * (m - 1).bit_length() + j + 1)
    if check and exact:
        _verify_base(a, lo, hi, k, goal)
    return float(a[k]), int(a.size) - k


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


def _verify_base(a, lo, hi, k, goal) -> None:
    if not np.all(a[lo : hi - 1] <= a[lo + 1 : hi]):
        raise AdmissibilityError("base range not sorted")
    if k > lo and not _fsum(a[k:]) >= goal:
        raise AdmissibilityError("base cut misses the goal")
    if k + 1 < hi and _fsum(a[k + 1 :]) >= goal:
        raise AdmissibilityError("a shorter base cut reaches the goal")


def _verify_candidates(values, lo, idx, goal) -> None:
    dropped = np.ones(values.size, dtype=bool)
    dropped[idx] = False
    if dropped.any() and not float(values[dropped].max()) <= lo:
        raise AdmissibilityError("a dropped entry exceeds the candidate bound")
    if not _exact_sum(values, [idx]) >= goal:
        raise AdmissibilityError("the candidates do not carry the goal")


def _verify_cut(iv, outcome, goal) -> None:
    if float(iv.values[outcome.marked].min()) != outcome.threshold:
        raise AdmissibilityError("threshold is not the smallest marked value")
    if not is_valid_minimal_set(iv, outcome.marked, goal):
        raise AdmissibilityError(
            "marked set does not dominate the rest, reach the goal and stay removal-minimal"
        )


def xstar_kernel(x_copy: np.ndarray, theta: float, counter: OpCounter | None = None) -> float:
    """Threshold of the minimal marking, computed on a destructive scratch copy.

    ``x_copy`` must be a caller-owned scratch array.  The same value kernel
    that :func:`quickmark` runs on the candidates above a sampled lower
    bound of the threshold, or, when that bound does not hold, reorders
    ``x_copy`` itself in place (contiguous accesses, no permutation
    indirection), or a copy of it when it is read-only; a ``counter`` counts the
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
        if cut is not None:
            a = cut[1]
        elif not a.flags.writeable:
            a = a.copy()
        return _select(a, goal, counter=counter)[0]

"""Minimal-cardinality marking: by selection in linear time, and by a full sort.

Both minimal strategies end in one sorted cut, :func:`_cut`: an ascending
range is cut by the stop rule that every strategy shares
(``core._first_reaching``), with the float mass above it in the buffer.
``sort`` (:func:`sort_mark`, the classical log-linear reference) sorts the
values and cuts the whole vector.  Only the values are sorted; the shared
materialise step marks the cut, ties by ascending index, so outputs are
deterministic and ascending.

The value kernel of :func:`quickmark` reorders a fresh copy of the
indicators in place.  Its levels only narrow the active range of ``m``
entries: each partitions it around the value of its lower median rank
``(m - 1) // 2`` and recurses into the part above the rank when that part
covers the goal, else into the part below, rank kept, with the goal reduced
by the mass it skips: the levels carry one number, that residual goal.  A
range of at most ``_M0`` entries, or a level's range within rounding of the
goal (:func:`_select`), is sorted in place and cut by :func:`_cut`.  Below
a band, or on a suffix of more than ``_EXACT_MAX`` entries, float sums
decide against the residual goal instead.  The kernel returns the threshold
``x_star`` and the cut ``count``, the cardinality of the marked set, which
one materialise step turns into the index set.  Each step halves the range,
numpy's introselect partitions it in worst-case linear time and the base
case sorts at most ``_EXACT_MAX`` entries: worst-case linear cost.  The set
has minimal cardinality for every input whose sums do not sit within
rounding of the goal, and on at most ``_EXACT_MAX`` entries it is the
rule's cut, the set that ``sort`` returns.

A vector of at most ``_M0`` entries does not reach the kernel at all: the
sort that validated it (``core._working``) is its base case, and one
:func:`_cut` of that copy serves ``quickmark``, ``xstar``, ``sort`` and
:func:`xstar_kernel` alike: a small call sorts once.

From ``_MIN_N`` entries on, a sampled bracket of ``x_star`` narrows the
kernel (Floyd & Rivest's sampled selection, applied to the mass-weighted
cut).  A strided sample of at most ``_SAMPLE`` entries is sorted, and the
rank where its mass crosses a ``theta`` share of its own total is widened
by five standard deviations of a sampled count each way: the next
smaller sample value below the lower rank is the bound ``lo``, and the
sample value at the upper rank the bound ``hi``.  (This ratio estimate fell
back less often on heavy tails than one that scales the sample's mass by
``N / s``.)  One pass takes the ascending indices of the entries above
``lo``, the largest entries, and their float sum must clear the goal by the
rounding bound of its ``m`` summands, so that their exact sum carries it.
Then ``x_star > lo`` and every tie at ``x_star`` is a candidate.

A second pass over the candidates splits off the band ``(lo, hi]``.  When
more than ``_EXACT_MAX`` candidates lie above ``hi`` and their float mass,
the candidate sum less the band sum, misses the goal by the rounding bound
``2 * (m + 1) * eps`` of the candidate sum, every minimal set holds them:
the kernel runs on a copy of the band alone, with the band's own goal
``goal - fixed`` for the float mass ``fixed`` above it, and adds their
count to its cut.  Otherwise (no rank above, so ``hi`` is ``inf``; at most
``_EXACT_MAX`` above, where declining keeps the base case's exact cut; or
their mass within rounding of the goal) it runs on a copy of every
candidate.  The candidates stay intact and in index order, so one
comparison with ``x_star`` gives the materialise step the marked
candidates.  On a smaller input, a subnormal goal, ``lo <= 0`` and
candidates that miss the goal, the kernel runs on every entry, at the cost
of one extra pass and the sort of the sample at most.  :func:`_candidates`
chooses this start once, and :func:`_threshold` runs the kernel from it
for :func:`quickmark` and :func:`xstar_kernel` alike.

An :class:`~dmark.core.OpCounter` counts the element operations of this
same kernel (:func:`_candidates`, :func:`_select`, :func:`_cut`), so the
counted cost is the cost of the code that is timed; on at most ``_M0``
entries it counts the validation's sort as the base case's.  Above ``_M0``,
``sort`` counts the comparisons of :func:`_counted_sort_desc` instead.
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
    _M0,
    _TINY,
    _exact_sum,
    _first_reaching,
    _fsum,
    _is_minimal,
    as_indicators,
    check_theta,
    criterion_tolerance,
    materialise,
    pairwise_sum,
)

__all__ = ["quickmark", "sort_mark", "xstar_kernel"]

# the longest suffix a[lo:] whose sorted cut math.fsum settles: a probe costs
# 17-40 ns per entry, which made boundary inputs of 10^4-10^6 entries run
# 2-3.5 times slower than the float cut (CHANGES.md)
_EXACT_MAX = 1024
# entries in the strided sample, and the smallest N whose mark() call the
# sample and the filter make cheaper (crossover measured in CHANGES.md)
_SAMPLE = 4096
_MIN_N = 32768


def quickmark(
    x: IndicatorInput,
    theta: float,
    *,
    counter: OpCounter | None = None,
    check_invariants: bool = False,
) -> MarkingOutcome:
    """Minimal-cardinality marking by median-partition recursion.

    One threshold step, :func:`_threshold`, finds the kernel's ``x_star``
    and cut (see the module docstring), and one materialise step builds the
    set; the outcome's ``threshold`` is ``x_star``, and a ``counter`` counts
    the filter's, the split's and the kernel's element operations.
    ``check_invariants`` re-verifies the range ordering, goal consistency
    and goal reachability at every level, the base case's cut against the
    stop rule, the dominance and removal-minimality of the final set, that
    the candidates hold every entry above their bound and carry the goal
    exactly, and that the candidates left out of the band exceed its bound
    and fall short of the goal (debug mode; raises
    :class:`AdmissibilityError` on any violation, which would indicate a bug).
    """
    iv = as_indicators(x)
    theta = check_theta(theta)
    tol = criterion_tolerance(iv) / iv._scale if check_invariants else None
    return _quickmark(iv, theta, counter, tol)


def _quickmark(
    iv: IndicatorVector, theta: float, counter: OpCounter | None = None, tol: float | None = None
) -> MarkingOutcome:
    """The body of :func:`quickmark` on a validated vector and ``0 < theta < 1``;
    ``tol`` is in the units of the working entries, which the kernel cuts."""
    x_star, count, idx, cand = _threshold(iv, theta, tol, counter)
    if idx is not None:
        # the candidates and their mask go before the next allocation
        at_least = cand >= x_star
        del cand
        idx = idx.compress(at_least)
        del at_least
    outcome = MarkingOutcome.trusted(iv, materialise(iv._work, x_star, count, idx), x_star)
    if tol is not None:
        _verify_cut(iv, outcome, iv._goal(theta))
    return outcome


def _threshold(
    iv: IndicatorVector, theta: float, tol: float | None = None, counter: OpCounter | None = None
) -> tuple[float, int, np.ndarray | None, np.ndarray | None]:
    """``(x_star, count, idx, cand)``: the kernel's cut, or on at most ``_M0`` entries
    the cut of ``iv._sorted``, and the candidates of :func:`_candidates`, or ``None``
    twice without them; the one threshold step of :func:`_quickmark` and :func:`xstar_kernel`."""
    goal = iv._goal(theta)
    if iv._sorted is not None:
        return *_cut(iv._sorted, 0, iv.n, goal, goal, tol is not None, counter), None, None
    idx, cand, band, fixed, above = _candidates(iv._work, theta, goal, tol is not None, counter)
    return *_select(band, goal - fixed, tol, counter, above), idx, cand


def _candidates(
    values: np.ndarray,
    theta: float,
    goal: float,
    check: bool = False,
    counter: OpCounter | None = None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, float, int]:
    """The kernel's start, chosen once for :func:`_threshold`.

    Returns ``(idx, cand, band, fixed, above)``: the ascending indices of
    the candidates, the entries above the bound ``lo`` of :func:`_bracket`,
    a fresh array of their values in that order, and the fresh array
    ``band`` the kernel starts on, below ``above`` candidates of float mass
    ``fixed`` that every minimal set holds; the kernel's goal is
    ``goal - fixed``.  ``band`` holds the candidates at most ``hi``, or a
    copy of every candidate when the band is declined, with ``fixed = 0``
    and ``above = 0``; without candidates it is a copy of every entry, with
    ``idx`` ``None`` and ``cand`` ``values`` (see the module docstring).

    With ``check`` the candidates are checked to hold every entry above
    ``lo`` and to carry the goal exactly, and a band to leave out only
    entries above ``hi`` whose exact sum misses the goal.  A ``counter``
    gets the ``N`` comparisons of the filter and the ``m`` summands, and,
    when the band is split off, the ``m`` comparisons of the split and the
    band's summands.
    """
    n = int(values.size)
    bounds = _bracket(values, theta) if n >= _MIN_N and goal >= _TINY else None
    if bounds is None:
        return None, values, values.copy(), 0.0, 0
    lo, hi = bounds
    idx = (values > lo).nonzero()[0]
    cand = values.take(idx)
    m = int(idx.size)
    total = float(np.add.reduce(cand))
    if counter is not None:
        counter.add(n + m)
    if not total >= goal * (1.0 + 2.0 * (m + 1) * EPS):
        del idx, cand  # released before the copy of every entry
        return None, values, values.copy(), 0.0, 0
    if check:
        _verify_candidates(values, lo, idx, goal)
    if hi < math.inf:
        # ties at hi stay in the band
        in_band = cand <= hi
        band = cand.compress(in_band)
        above = m - int(band.size)
        fixed = total - float(np.add.reduce(band))
        if counter is not None:
            counter.add(m + band.size)
        if above > _EXACT_MAX and fixed < goal - 2.0 * (m + 1) * EPS * total:
            if check:
                _verify_band(cand[~in_band], hi, goal)
            return idx, cand, band, fixed, above
    return idx, cand, cand.copy(), 0.0, 0


def _bracket(values: np.ndarray, theta: float) -> tuple[float, float] | None:
    """Sampled bounds ``lo < hi`` of ``x_star``, or ``None`` without a lower bound.

    A strided sample of at most ``_SAMPLE`` entries is sorted, largest
    first, and the rank ``j`` where its mass crosses its own ``theta`` share
    is widened by ``w``, five standard deviations of a sampled count and a
    margin.  ``lo`` is the next sample value below rank ``j + w``, so that a
    tie there stays whole, and ``hi`` the sample value at rank ``j - w``,
    or ``inf`` when that rank is not positive.  There is no lower bound when
    rank ``j + w`` passes the end of the sample or ``lo`` is not positive.
    """
    n = int(values.size)
    sample = np.sort(values[:: -(-n // _SAMPLE)])[::-1]
    mass = sample.cumsum()
    j = int(mass.searchsorted(theta * mass[-1]))
    w = int(5.0 * math.sqrt(j + 1.0)) + 16
    if j + w >= sample.size:
        return None
    rest = sample[j + w :]
    lo = float(rest[int((rest < rest[0]).argmax())])
    if not 0.0 < lo < rest[0]:
        return None
    return lo, float(sample[j - w]) if j - w > 0 else math.inf


def _select(
    a: np.ndarray,
    goal: float,
    tol: float | None = None,
    counter: OpCounter | None = None,
    above: int = 0,
) -> tuple[float, int]:
    """Destructive value kernel: threshold ``x_star`` and cut ``count``.

    Reorders ``a`` in place so that ``a[:k] <= x_star == a[k] <= a[k:]`` at
    the cut's rank ``k`` and returns ``(a[k], a.size - k + above)``: the
    ``count`` largest values carry the goal and the ``count - 1`` largest do
    not.  ``a`` is every entry, or the band of :func:`_candidates` with its
    own goal, below ``above`` entries that every minimal set holds.  The
    levels carry one number, the residual goal ``v`` (a running mass
    compared with the goal missed ``N_min`` more often at 10^4-10^5
    entries), and narrow the range at its lower median rank by one
    comparison ``s >= v`` with the float mass ``s`` above the rank, until
    the range, sorted in place, goes to :func:`_cut`: at most ``_M0``
    entries, or a range whose ``s`` lies within ``2 * (n + 1) * eps * goal``
    of ``v`` while nothing lies above ``a`` and ``n = a.size - lo`` is at
    most ``_EXACT_MAX``.  Outside
    that window the comparison is the rule's: to first order, ``s`` errs by
    ``(hi - k - 1) * eps / 2`` of its exact sum, and ``v`` errs from
    ``goal - T``, for the exact mass ``T`` of ``a[hi:]`` (below ``goal`` up
    to rounding), by ``(a.size - hi) * eps / 2 * (T + goal)``: per entry
    moved there, one summand's rounding and at most one subtraction from
    ``0 < v <= goal``.  So ``s - v`` errs by less than ``n * eps * goal``,
    half the window, while ``s <= 2 * goal``, and a larger ``s`` carries
    the goal alone.  ``tol`` checks every level with that slack and the
    base case's exact cut against the rule; a ``counter`` gets, per level,
    the elements partitioned and summed, and the base case's count.
    """
    v, lo, hi = goal, 0, int(a.size)
    while True:
        if tol is not None:
            _verify_level(a, lo, hi, v, goal, tol)
        m = hi - lo
        if m <= _M0:
            break
        k = lo + (m - 1) // 2
        a[lo:hi].partition(k - lo)
        s = float(np.add.reduce(a[k + 1 : hi]))
        if counter is not None:
            counter.add(m + (hi - k - 1))
        n = a.size - lo
        if not above and n <= _EXACT_MAX and abs(s - v) <= 2.0 * (n + 1) * EPS * goal:
            break
        if s >= v:
            lo = k + 1
        else:
            v -= s
            hi = k + 1
    a[lo:hi].sort()
    return _cut(a, lo, hi, goal, v, tol is not None, counter, above)


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


def _verify_level(a, lo, hi, v, goal, tol) -> None:
    if lo > 0 and not float(a[:lo].max()) <= float(a[lo:hi].min()):
        raise AdmissibilityError("prefix not below the active range")
    if hi < a.size and not float(a[lo:hi].max()) <= float(a[hi:].min()):
        raise AdmissibilityError("suffix not above the active range")
    # only a goal that underflows to 0 leaves a residual that is not positive
    if not (v > 0.0 or goal == 0.0):
        raise AdmissibilityError(f"residual goal not positive: {v!r}")
    expected = goal - pairwise_sum(a[hi:])
    if abs(v - expected) > tol:
        raise AdmissibilityError(f"residual goal {v!r} inconsistent (expected {expected!r})")
    if v > pairwise_sum(a[lo:hi]) + tol:
        raise AdmissibilityError("residual goal exceeds the active range mass")


def _verify_candidates(values, lo, idx, goal) -> None:
    dropped = np.ones(values.size, dtype=bool)
    dropped[idx] = False
    if dropped.any() and not float(values[dropped].max()) <= lo:
        raise AdmissibilityError("a dropped entry exceeds the candidate bound")
    if not _exact_sum(values, [idx]) >= goal:
        raise AdmissibilityError("the candidates do not carry the goal")


def _verify_band(outside, hi, goal) -> None:
    if outside.size and not float(outside.min()) > hi:
        raise AdmissibilityError("a candidate outside the band does not exceed its bound")
    if not _fsum(outside) < goal:
        raise AdmissibilityError("the candidates above the band carry the goal")


def _verify_cut(iv, outcome, goal) -> None:
    if float(iv._work[outcome.marked].min()) != outcome.threshold / iv._scale:
        raise AdmissibilityError("threshold is not the smallest marked value")
    if not _is_minimal(iv, outcome.marked, goal):
        raise AdmissibilityError(
            "marked set does not dominate the rest, reach the goal and stay removal-minimal"
        )


def xstar_kernel(x_copy: IndicatorInput, theta: float) -> float:
    """Threshold of the minimal marking, from the threshold step of :func:`quickmark`.

    ``x_copy`` is validated into an :class:`~dmark.core.IndicatorVector`, as
    every strategy's input is, and never written.  Returns the smallest
    value contained in any minimal marked set, in the units of ``x_copy``;
    it alone does not fix the cut among ties in floating point, which
    :func:`quickmark` decides.
    """
    theta = check_theta(theta)
    iv = as_indicators(x_copy)
    return _threshold(iv, theta)[0] * iv._scale


def sort_mark(
    x: IndicatorInput, theta: float, counter: OpCounter | None = None
) -> MarkingOutcome:
    """Mark a minimal-cardinality set via sorting.

    Returns the shortest descending prefix that reaches the goal, cut by
    :func:`_cut` over the whole vector, with the cut's value as the
    outcome's ``threshold``.  On at most ``_M0`` entries it cuts the sorted
    copy that validated the vector, and a ``counter`` counts that sort and
    cut as the selection kernel's base case does.  Above ``_M0`` a
    ``counter`` runs the interpreter's comparison sort as well, counting its
    comparisons and the length of the cut; the set is the same without one.
    """
    iv = as_indicators(x)
    theta = check_theta(theta)
    goal = iv._goal(theta)
    if iv._sorted is not None:
        x_star, count = _cut(iv._sorted, 0, iv.n, goal, goal, counter=counter)
    else:
        x_star, count = _cut(np.sort(iv._work), 0, iv.n, goal, goal)
        if counter is not None:
            _counted_sort_desc(iv.values.tolist(), counter)
            counter.add(count)
    return MarkingOutcome.trusted(iv, materialise(iv._work, x_star, count), x_star)


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

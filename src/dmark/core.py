"""Shared domain types and the bulk-marking criterion.

The library works on a vector of nonnegative refinement indicators and an
adaptivity parameter ``theta``.  A set of indices ``M`` satisfies the Dörfler
criterion when the marked entries carry at least a ``theta`` fraction of the
total indicator mass::

    theta * sum(x) <= sum(x[j] for j in M)

Every marking strategy in this package returns such a set; they differ in
cardinality guarantees and cost.  All indices are 0-based.

Whole-vector sums are computed with numpy's pairwise summation, once per
:class:`IndicatorVector`: its validation reads the input twice, once for
the largest entry and once for the sum.  An input that no one can write
to, a 1-D, contiguous, native float64 array that is read-only along with
every array it views, is adopted without a copy, and every other input is
copied; the caller promises not to make an adopted array writeable again
(see :class:`IndicatorVector`).  The decrement and binning strategies share one
stop rule: the first prefix of their walk whose correctly rounded sum
reaches the goal, with ``math.fsum`` settling the prefixes within rounding
of it.  The verification predicate :func:`satisfies_doerfler` is the only
place where a floating-point slack is applied.
"""

from __future__ import annotations

import math
import struct
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
_SUM_LIMIT = float(np.finfo(np.float64).max) / 2
_NO_GUARD = nullcontext()
_F64, _U64 = np.dtype(np.float64), np.dtype(np.uint64)
# the bit pattern of inf, and a double's bits as an unsigned integer
_INF_BITS = 0x7FF0000000000000
_BITS, _DOUBLE = struct.Struct("=Q"), struct.Struct("=d")

__all__ = [
    "EPS",
    "MarkingError",
    "InvalidIndicatorsError",
    "ParameterError",
    "AdmissibilityError",
    "InstanceTooLargeError",
    "ParseError",
    "OpCounter",
    "IndicatorVector",
    "MarkingOutcome",
    "as_indicators",
    "check_indicators",
    "check_theta",
    "check_nu",
    "criterion_tolerance",
    "goal_value",
    "satisfies_doerfler",
    "mark_theta_one",
    "pairwise_sum",
]


class MarkingError(Exception):
    """Base class for all errors raised by this package."""


class InvalidIndicatorsError(MarkingError):
    """The indicator vector violates its invariants (negative, all-zero, ...)."""


class ParameterError(MarkingError):
    """A parameter such as theta, nu or a quantile is out of range."""


class AdmissibilityError(MarkingError):
    """An internal invariant of the selection recursion failed.

    This signals an implementation bug, not bad user input.
    """


class InstanceTooLargeError(MarkingError):
    """The instance exceeds the size limit of an exhaustive routine."""


class ParseError(MarkingError):
    """An indicator file could not be parsed."""


@dataclass
class OpCounter:
    """Accumulates element-operation counts in instrumented runs.

    The strategies count the element operations of their timed kernels; the
    one exception is ``sort``, whose count comes from a comparison-counting
    twin of the sort (numpy's sort exposes no count).
    """

    comparisons: int = 0

    def add(self, n: int) -> None:
        self.comparisons += n


def pairwise_sum(values: np.ndarray) -> float:
    """Sum of a float64 array using numpy's pairwise accumulation."""
    return float(np.add.reduce(values))


def overflow_guard(bound: float) -> AbstractContextManager:
    """Context that lets float sums below ``2 * bound`` overflow quietly.

    A float sum of any ``m <= N`` nonnegative entries, in any order, stays
    below twice ``N`` times their largest and below twice the float sum of
    all ``N``; unless ``bound``, one of these, reaches half the largest
    double (or overflowed) the guard is a no-op, far cheaper than
    ``np.errstate``.
    """
    return _NO_GUARD if bound < _SUM_LIMIT else np.errstate(over="ignore")


def _first_reaching(
    prefix: np.ndarray, v: float, m: int, exact_sum: Callable[[int], float]
) -> int:
    """Position of the first prefix whose correctly rounded sum reaches ``v``.

    ``prefix`` holds float running sums of at most ``m`` nonnegative
    summands each, so each lies within a relative ``m * eps / 2`` of its
    exact sum.  Positions whose float sums lie more than ``2 * (m + 1) * eps``
    away from ``v`` are decided by the float sum alone; the window between
    is settled by ``exact_sum(j)``, the correctly rounded sum up to ``j``.
    The sum before ``prefix[0]`` is taken to fall short of ``v``.  Returns
    ``len(prefix)`` when no prefix reaches ``v``.
    """
    slack = 2.0 * (m + 1) * EPS
    below, above = v * (1.0 - slack), v * (1.0 + slack)
    pos = int(prefix.searchsorted(v))
    # the answer lies in [lo, hi]: probes at the two neighbours of the float
    # cut usually settle it, and only a probe that overturns the float cut
    # opens the whole window; an overflowed upper bound clears nothing, since
    # a float sum of inf may round up
    lo = hi = pos
    if pos < prefix.size and (above == math.inf or prefix[pos] < above):
        if not exact_sum(pos) >= v:
            lo = pos + 1
            hi = prefix.size if above == math.inf else int(prefix.searchsorted(above))
    if lo == pos > 0 and prefix[pos - 1] >= below and exact_sum(pos - 1) >= v:
        lo, hi = int(prefix.searchsorted(below)), pos - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if exact_sum(mid) >= v:
            hi = mid
        else:
            lo = mid + 1
    return hi


def _fsum(values: np.ndarray) -> float:
    """Correctly rounded sum of a float64 array, read as a memoryview; ``inf`` on overflow."""
    try:
        return math.fsum(memoryview(values))
    except OverflowError:
        return math.inf


def _exact_sum(x: np.ndarray, parts: list[np.ndarray]) -> float:
    """Correctly rounded sum of ``x`` over the index arrays ``parts``."""
    return _fsum(x[np.concatenate(parts)])


def check_theta(theta: float, *, allow_one: bool = False) -> None:
    hi_ok = theta <= 1.0 if allow_one else theta < 1.0
    if not (0.0 < theta and hi_ok):
        bound = "(0, 1]" if allow_one else "(0, 1)"
        raise ParameterError(f"theta must lie in {bound}, got {theta!r}")


def check_nu(nu: float) -> None:
    if not (0.0 < nu < 1.0):
        raise ParameterError(f"nu must lie in (0, 1), got {nu!r}")


def check_indicators(arr: np.ndarray) -> float:
    """Raise :class:`InvalidIndicatorsError` unless ``arr`` is a valid indicator array.

    Valid means one-dimensional, nonempty, finite, nonnegative and not all
    zero.  Returns the largest entry.
    """
    if arr.ndim != 1:
        raise InvalidIndicatorsError(
            f"indicators must be one-dimensional, got shape {arr.shape}"
        )
    if arr.size == 0:
        raise InvalidIndicatorsError("indicator vector must not be empty")
    # a NaN entry makes both extremes NaN
    lo, hi = float(np.minimum.reduce(arr)), float(np.maximum.reduce(arr))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidIndicatorsError("indicators must be finite")
    if lo < 0.0:
        raise InvalidIndicatorsError("indicators must be nonnegative")
    if hi == 0.0:
        raise InvalidIndicatorsError("at least one indicator must be positive")
    return hi


def total_and_max(arr: np.ndarray) -> tuple[float, float]:
    """The pairwise sum and the largest entry of a valid indicator array.

    Raises like :func:`check_indicators`, in two read passes instead of its
    two plus the sum.  Nonnegative doubles order like their bit patterns
    read as unsigned integers, and a set sign bit puts a pattern above all
    of theirs, so an unsigned maximum that is positive and below the
    pattern of ``inf`` proves every entry finite and nonnegative, and not
    all zero; it is the largest entry.  Any other maximum (NaN, ``inf``, a
    negative entry, ``-0.0`` or all zeros) falls back to
    :func:`check_indicators`, which raises with the violated condition or
    returns the largest entry.
    """
    if arr.ndim != 1 or not arr.size:
        check_indicators(arr)
    top = int(np.maximum.reduce(arr.view(_U64)))
    if 0 < top < _INF_BITS:
        hi = _DOUBLE.unpack(_BITS.pack(top))[0]
    else:
        hi = check_indicators(arr)
    with overflow_guard(arr.size * hi):
        return pairwise_sum(arr), hi


def _adoptable(values: object) -> bool:
    """Whether ``values`` is a native float64 vector that no one can write to.

    It must be 1-D, C-contiguous, aligned and read-only, and so must every
    array in its ``base`` chain, which ends at an array that owns its data
    or at an immutable ``bytes`` object.
    """
    if not (isinstance(values, np.ndarray) and values.dtype == _F64):
        return False
    flags = values.flags
    if flags.writeable or not (flags.c_contiguous and flags.aligned) or values.ndim != 1:
        return False
    base = values.base
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return False
        base = base.base
    return base is None or type(base) is bytes


class IndicatorVector:
    """A nonnegative, not-all-zero vector of refinement indicators.

    The entries are the summands of the marking criterion.  Callers that work
    with squared estimator contributions must square before constructing the
    vector; the library never squares on its own.

    ``values`` is a read-only float64 view, so its sum and its maximum,
    both from validation, are kept.  A 1-D, C-contiguous, aligned,
    native float64 array that is read-only, over bases that are read-only
    too and end at an array that owns its data or at ``bytes``, is adopted
    without a copy: the view shares its memory.  Every other
    input is copied, including a read-only view of a writeable array, lists,
    other dtypes, byte-swapped and strided arrays.  The caller promises not
    to turn the ``WRITEABLE`` flag of an adopted array, or of an array it
    views, back on; numpy allows that only on an array that owns its data.
    """

    __slots__ = ("values", "_max", "_total")

    def __init__(self, values: Union[Sequence[float], np.ndarray]):
        if _adoptable(values):
            arr = values.view(np.ndarray)
        else:
            owner = np.array(values, dtype=np.float64)
            owner.setflags(write=False)
            # a view, whose flag cannot be turned back on
            arr = owner.view()
        self._total, self._max = total_and_max(arr)
        self.values = arr

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def total(self) -> float:
        return self._total

    def max_value(self) -> float:
        return self._max

    def scratch_copy(self) -> np.ndarray:
        """A mutable copy for destructive kernels; the vector itself stays intact."""
        return self.values.copy()

    def __repr__(self) -> str:
        return f"IndicatorVector(n={self.n})"


IndicatorInput = Union[IndicatorVector, Sequence[float], np.ndarray]


def as_indicators(x: IndicatorInput) -> IndicatorVector:
    """Coerce array-likes into a validated :class:`IndicatorVector`."""
    if isinstance(x, IndicatorVector):
        return x
    return IndicatorVector(x)


def index_array(indices: Iterable[int]) -> np.ndarray:
    """The indices as an int64 array (no copy for int64 arrays).

    Raises :class:`MarkingError` for a nonempty input without an integer
    dtype: a cast would truncate floats and read a boolean mask as indices.
    """
    if not isinstance(indices, np.ndarray):
        indices = np.asarray(list(indices))
    if indices.dtype.kind not in "iu" and indices.size:
        raise MarkingError(f"marked indices must be integers, got dtype {indices.dtype}")
    return indices.astype(np.int64, copy=False)


def _index_mask(n: int, idx: np.ndarray) -> np.ndarray:
    """Boolean mask of ``idx`` over ``range(n)``; raises on an index out of range."""
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError("marked index out of range")
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask


def materialise(
    values: np.ndarray, x_star: float, count: int, above: np.ndarray | None = None
) -> np.ndarray:
    """The ``count`` marked indices of a cut, ascending and read-only.

    Every index above ``x_star`` and the lowest-index ties at ``x_star``; the
    cut (the kernel's partition or the sorted values) guarantees that between
    one and all of the ties are needed, so no float decision is taken here.
    ``above``, when the caller has it, is the ascending index array of every
    entry at or above ``x_star``, owned by the result.
    """
    marked = (values >= x_star).nonzero()[0] if above is None else above
    surplus = marked.size - count
    if surplus:
        drop = values[marked] == x_star
        drop[drop.nonzero()[0][:-surplus]] = False  # the lowest-index ties stay
        marked = marked[~drop]
    marked.setflags(write=False)
    return marked


@dataclass(frozen=True, eq=False)
class MarkingOutcome:
    """A marked index set together with its achieved sum and cardinality.

    ``marked`` is a read-only int64 array, in selection order for
    ``decrement`` and ascending for every other strategy; the minimal ones
    take the lowest-index ties at their cut value through :func:`materialise`.
    ``threshold`` is the smallest marked value when the selection kernel
    (``quickmark``, ``xstar``) decided the cut, and ``None`` for every other
    strategy.
    """

    marked: np.ndarray
    achieved_sum: float
    cardinality: int
    threshold: float | None = None

    @classmethod
    def from_marked(cls, x: IndicatorInput, indices: Iterable[int]) -> "MarkingOutcome":
        """Validate a caller-supplied set: in range and pairwise distinct."""
        iv = as_indicators(x)
        idx = np.array(index_array(indices))
        if np.count_nonzero(_index_mask(iv.n, idx)) != idx.size:
            raise MarkingError("marked indices must be distinct")
        return cls.trusted(iv, idx)

    @classmethod
    def trusted(cls, iv: IndicatorVector, idx: np.ndarray) -> "MarkingOutcome":
        """Wrap an int64 index array that a marking strategy produced.

        The array must be distinct, in range and owned by the outcome; it is
        not checked, and it is made read-only.
        """
        idx.setflags(write=False)
        with overflow_guard(iv.total()):
            return cls(idx, pairwise_sum(iv.values[idx]), int(idx.size))


def criterion_tolerance(x: IndicatorInput) -> float:
    """Absolute slack used by the verification predicate: 4 * N * eps * max(x)."""
    iv = as_indicators(x)
    return 4.0 * iv.n * EPS * iv.max_value()


def goal_value(x: IndicatorInput, theta: float) -> float:
    """The goal value ``theta * sum(x)``, computed with pairwise summation."""
    iv = as_indicators(x)
    check_theta(theta, allow_one=True)
    return theta * iv.total()


def satisfies_doerfler(x: IndicatorInput, theta: float, marked: Iterable[int]) -> bool:
    """Whether the marked set carries at least the goal value.

    The comparison allows the absolute slack :func:`criterion_tolerance`; this
    predicate is meant for verification, the marking algorithms themselves
    compare without slack.
    """
    iv = as_indicators(x)
    check_theta(theta, allow_one=True)
    # the mask collapses duplicates and sums in ascending index order
    mask = _index_mask(iv.n, index_array(marked))
    with overflow_guard(iv.total()):
        marked_sum = pairwise_sum(iv.values[mask])
    return marked_sum >= goal_value(iv, theta) - criterion_tolerance(iv)


def mark_theta_one(x: IndicatorInput) -> MarkingOutcome:
    """The unique minimal marking for ``theta == 1``: all strictly positive entries."""
    iv = as_indicators(x)
    return MarkingOutcome.trusted(iv, np.flatnonzero(iv.values > 0.0))

"""Shared domain types and the bulk-marking criterion.

The library works on a vector of nonnegative refinement indicators and an
adaptivity parameter ``theta``.  A set of indices ``M`` satisfies the Dörfler
criterion when the marked entries carry at least a ``theta`` fraction of the
total indicator mass::

    theta * sum(x) <= sum(x[j] for j in M)

Every marking strategy in this package returns such a set; they differ in
cardinality guarantees and cost.  All indices are 0-based.

Whole-vector sums are computed with numpy's pairwise summation, once per
:class:`IndicatorVector`.  The decrement and binning strategies share one
stop rule: the first prefix of their walk whose correctly rounded sum
reaches the goal, with ``math.fsum`` settling the prefixes within rounding
of it.  The verification predicate :func:`satisfies_doerfler` is the only
place where a floating-point slack is applied.
"""

from __future__ import annotations

import math
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
_SUM_LIMIT = float(np.finfo(np.float64).max) / 2
_NO_GUARD = nullcontext()

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


def overflow_guard(n: int, max_value: float) -> AbstractContextManager:
    """Context that lets float sums of ``n`` entries up to ``max_value`` overflow quietly.

    Such sums stay below ``2 * n * max_value``; unless that reaches the
    largest double the guard is a no-op, far cheaper than ``np.errstate``.
    """
    return np.errstate(over="ignore") if n * max_value >= _SUM_LIMIT else _NO_GUARD


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
    # an overflowed upper bound clears nothing: a float sum of inf may round up
    clear_above = pos == prefix.size or (above != math.inf and prefix[pos] >= above)
    if clear_above and (pos == 0 or prefix[pos - 1] < below):
        return pos
    lo = int(prefix.searchsorted(below))
    hi = prefix.size if above == math.inf else int(prefix.searchsorted(above))
    while lo < hi:
        mid = (lo + hi) // 2
        if exact_sum(mid) >= v:
            hi = mid
        else:
            lo = mid + 1
    return hi


def _exact_sum(x: np.ndarray, parts: list[np.ndarray]) -> float:
    """Correctly rounded sum of ``x`` over the index arrays ``parts``."""
    try:
        return math.fsum(x[np.concatenate(parts)].tolist())
    except OverflowError:  # the exact sum exceeds the largest double
        return math.inf


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


class IndicatorVector:
    """A nonnegative, not-all-zero vector of refinement indicators.

    The entries are the summands of the marking criterion.  Callers that work
    with squared estimator contributions must square before constructing the
    vector; the library never squares on its own.
    The stored array is an immutable float64 copy of the input, so its
    maximum (from validation) and its sum (on first use) are kept.
    """

    __slots__ = ("values", "_max", "_total")

    def __init__(self, values: Union[Sequence[float], np.ndarray]):
        arr = np.array(values, dtype=np.float64)
        self._max = check_indicators(arr)
        arr.setflags(write=False)
        self.values = arr
        self._total: float | None = None

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def total(self) -> float:
        if self._total is None:
            with overflow_guard(self.n, self._max):
                self._total = pairwise_sum(self.values)
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
        with overflow_guard(iv.n, iv.max_value()):
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
    with overflow_guard(iv.n, iv.max_value()):
        marked_sum = pairwise_sum(iv.values[mask])
    return marked_sum >= goal_value(iv, theta) - criterion_tolerance(iv)


def mark_theta_one(x: IndicatorInput) -> MarkingOutcome:
    """The unique minimal marking for ``theta == 1``: all strictly positive entries."""
    iv = as_indicators(x)
    return MarkingOutcome.trusted(iv, np.flatnonzero(iv.values > 0.0))

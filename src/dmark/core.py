"""Shared domain types and the bulk-marking criterion.

The library works on a vector of nonnegative refinement indicators and an
adaptivity parameter ``theta``.  A set of indices ``M`` satisfies the Dörfler
criterion when the marked entries carry at least a ``theta`` fraction of the
total indicator mass::

    theta * sum(x) <= sum(x[j] for j in M)

Every marking strategy in this package returns such a set; they differ in
cardinality guarantees and cost.  All indices are 0-based.

Whole-vector sums are computed with numpy's pairwise summation, once per
:class:`IndicatorVector`.  The decrement strategy stops at the first prefix
of its selection whose correctly rounded sum reaches the goal, with
``math.fsum`` settling the prefixes within rounding of it.  The verification
predicate :func:`satisfies_doerfler` is the only place where a
floating-point slack is applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

EPS = float(np.finfo(np.float64).eps)

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
    "MarkingParams",
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
    twin of the sort (numpy's argsort exposes no count).
    """

    comparisons: int = 0

    def add(self, n: int) -> None:
        self.comparisons += n


def pairwise_sum(values: np.ndarray) -> float:
    """Sum of a float64 array using numpy's pairwise accumulation."""
    return float(np.sum(values))


def check_theta(theta: float, *, allow_one: bool = False) -> None:
    hi_ok = theta <= 1.0 if allow_one else theta < 1.0
    if not (0.0 < theta and hi_ok):
        bound = "(0, 1]" if allow_one else "(0, 1)"
        raise ParameterError(f"theta must lie in {bound}, got {theta!r}")


def check_nu(nu: float) -> None:
    if not (0.0 < nu < 1.0):
        raise ParameterError(f"nu must lie in (0, 1), got {nu!r}")


def check_indicators(arr: np.ndarray) -> None:
    """Raise :class:`InvalidIndicatorsError` unless ``arr`` is a valid indicator array.

    Valid means one-dimensional, nonempty, finite, nonnegative and not all
    zero.
    """
    if arr.ndim != 1:
        raise InvalidIndicatorsError(
            f"indicators must be one-dimensional, got shape {arr.shape}"
        )
    if arr.size == 0:
        raise InvalidIndicatorsError("indicator vector must not be empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidIndicatorsError("indicators must be finite")
    if np.any(arr < 0.0):
        raise InvalidIndicatorsError("indicators must be nonnegative")
    if not np.any(arr > 0.0):
        raise InvalidIndicatorsError("at least one indicator must be positive")


class IndicatorVector:
    """A nonnegative, not-all-zero vector of refinement indicators.

    The entries are the summands of the marking criterion.  Callers that work
    with squared estimator contributions must square before constructing the
    vector; the library never squares on its own.
    The stored array is an immutable float64 copy of the input, so its sum
    is computed on the first call of :meth:`total` and kept.
    """

    __slots__ = ("values", "_total")

    def __init__(self, values: Union[Sequence[float], np.ndarray]):
        arr = np.array(values, dtype=np.float64)
        check_indicators(arr)
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
            self._total = pairwise_sum(self.values)
        return self._total

    def max_value(self) -> float:
        return float(self.values.max())

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


@dataclass(frozen=True)
class MarkingParams:
    """Validated marking parameters.

    ``theta`` in (0, 1]; ``theta == 1`` is served by the dedicated
    positive-support path.  ``nu`` in (0, 1) is used only by the decrement and
    binning strategies.
    """

    theta: float
    nu: float = 0.5

    def __post_init__(self) -> None:
        check_theta(self.theta, allow_one=True)
        check_nu(self.nu)

    @property
    def full_marking(self) -> bool:
        return self.theta == 1.0


def index_array(indices: Iterable[int]) -> np.ndarray:
    """The indices as an int64 array (no copy for int64 arrays)."""
    if not isinstance(indices, np.ndarray):
        indices = list(indices)
    return np.asarray(indices, dtype=np.int64)


def _index_mask(n: int, idx: np.ndarray) -> np.ndarray:
    """Boolean mask of ``idx`` over ``range(n)``; raises on an index out of range."""
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError("marked index out of range")
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask


@dataclass(frozen=True, eq=False)
class MarkingOutcome:
    """A marked index set together with its achieved sum and cardinality.

    ``marked`` is a read-only int64 array in the order its producer chose
    (ascending for the threshold strategies, descending value for ``sort``,
    selection order for ``decrement``).  ``threshold`` is the smallest marked
    value when the selection kernel (``quickmark``, ``xstar``) decided the
    cut, and ``None`` for every other strategy.
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
        return cls(idx, pairwise_sum(iv.values[idx]), int(idx.size))

    @property
    def marked_set(self) -> frozenset[int]:
        return frozenset(self.marked.tolist())


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
    marked_sum = pairwise_sum(iv.values[mask])
    return marked_sum >= goal_value(iv, theta) - criterion_tolerance(iv)


def mark_theta_one(x: IndicatorInput) -> MarkingOutcome:
    """The unique minimal marking for ``theta == 1``: all strictly positive entries."""
    iv = as_indicators(x)
    return MarkingOutcome.trusted(iv, np.flatnonzero(iv.values > 0.0))

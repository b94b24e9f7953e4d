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
the largest entry and once for the sum; up to ``_M0`` entries the first
read is a sort, whose ascending copy the minimal strategies then cut
without sorting again.  An input that no one can write
to, a 1-D, contiguous, native float64 array that is read-only along with
every array it views, is adopted without a copy, and every other input is
copied; the caller promises not to make an adopted array writeable again
(see :class:`IndicatorVector`).  Overflow is decided here alone: when ``N``
times the largest entry reaches half the largest double, the strategies
work on the entries scaled by a power of two, so that no float sum of them
can overflow, and every number they report is scaled back.  The decrement
and binning strategies share one stop rule: the first prefix of their walk
whose correctly rounded sum reaches the goal, with ``math.fsum`` settling
the prefixes within rounding of it.  Only verification applies a
floating-point slack, :func:`criterion_tolerance`: the predicates
:func:`satisfies_doerfler` and :func:`_is_minimal` (behind
``oracle.is_valid_minimal_set``) and ``quickmark``'s ``check_invariants``;
the strategies themselves compare without slack.
"""

from __future__ import annotations

import bisect
import math
import numbers
import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Sequence, Union

import numpy as np

EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
_SUM_LIMIT = float(np.finfo(np.float64).max) / 2
_F64, _U64 = np.dtype(np.float64), np.dtype(np.uint64)
# the bit pattern of inf, and a double's bits as an unsigned integer
_INF_BITS = 0x7FF0000000000000
_BITS, _DOUBLE = struct.Struct("=Q"), struct.Struct("=d")
# the types of theta and nu: float first, which the ABC check is slow to admit
_REAL = (float, numbers.Real)
# the largest vector validated by a sort, and the largest range the selection
# kernel sorts instead of partitioning (sweep in CHANGES.md)
_M0 = 128

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
    # opens the whole window (a plain bisect took 3-5 probes, not 2, in binning
    # on 10^6 boundary inputs at theta > 0.99999: 155-291 against 105-151 ms)
    lo = hi = pos
    if pos < prefix.size and prefix.item(pos) < above:
        if not exact_sum(pos) >= v:
            lo = pos + 1
            hi = int(prefix.searchsorted(above))
    if lo == pos > 0 and prefix.item(pos - 1) >= below and exact_sum(pos - 1) >= v:
        lo, hi = int(prefix.searchsorted(below)), pos - 1
    if lo < hi:
        lo += bisect.bisect_left(range(lo, hi), True, key=lambda j: exact_sum(j) >= v)
    return lo


def _fsum(values: np.ndarray) -> float:
    """Correctly rounded sum of a float64 array, read as a memoryview."""
    return math.fsum(memoryview(values))


def _exact_sum(x: np.ndarray, parts: list[np.ndarray]) -> float:
    """Correctly rounded sum of ``x`` over the index arrays ``parts``."""
    return _fsum(x[np.concatenate(parts)])


def check_theta(theta: float, *, allow_one: bool = False) -> float:
    """``theta`` as a float, or :class:`ParameterError` outside its range."""
    hi_ok = isinstance(theta, _REAL) and (theta <= 1.0 if allow_one else theta < 1.0)
    if not (hi_ok and 0.0 < theta):
        bound = "(0, 1]" if allow_one else "(0, 1)"
        raise ParameterError(f"theta must lie in {bound}, got {theta!r}")
    # a narrower scalar, such as numpy.float32, would carry its precision into the goal
    return float(theta)


def check_nu(nu: float) -> float:
    """``nu`` as a float, or :class:`ParameterError` outside ``(0, 1)``."""
    if not (isinstance(nu, _REAL) and 0.0 < nu < 1.0):
        raise ParameterError(f"nu must lie in (0, 1), got {nu!r}")
    return float(nu)


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


def _working(
    arr: np.ndarray,
) -> tuple[np.ndarray, float, float, float, np.ndarray | None]:
    """The working entries of a valid indicator array, their pairwise sum
    and largest entry, the scale that turns them back into ``arr``, and,
    for at most ``_M0`` entries, their ascending copy.

    Raises like :func:`check_indicators`, in two read passes instead of its
    two plus the sum.  Up to ``_M0`` entries the first pass sorts a copy:
    a nonnegative first entry and a finite, positive last entry prove every
    entry finite and nonnegative, and not all zero (a sort puts NaN last),
    and the last is the largest entry.  Above ``_M0``, nonnegative doubles
    order like their bit patterns read as unsigned integers, and a set sign
    bit puts a pattern above all of theirs, so an unsigned maximum that is
    positive and below the pattern of ``inf`` proves the same; it is the
    largest entry.  Any other case (NaN, ``inf``, a negative entry, or all
    zeros, and above ``_M0`` a ``-0.0``) falls back to
    :func:`check_indicators`, which raises with the violated condition or
    returns the largest entry.

    The working entries are ``arr`` at scale 1, or, when ``N * max``
    reaches ``_SUM_LIMIT``, a read-only ``arr / 2**s`` with ``s`` read off
    the exponents of ``N`` and ``max`` so that ``N * max / 2**s < 2**1022``:
    no float sum of them, in any order, can overflow.  The ascending copy
    is scaled with them, and read-only.
    """
    if arr.ndim != 1 or not arr.size:
        check_indicators(arr)
    ascending = None
    if arr.size <= _M0:
        ascending = arr.copy()
        ascending.sort()
        hi = ascending.item(-1)
        if not (ascending.item(0) >= 0.0 and 0.0 < hi < math.inf):
            hi = check_indicators(arr)
    else:
        top = int(np.maximum.reduce(arr.view(_U64)))
        if 0 < top < _INF_BITS:
            hi = _DOUBLE.unpack(_BITS.pack(top))[0]
        else:
            hi = check_indicators(arr)
    scale = 1.0
    if arr.size * hi >= _SUM_LIMIT:
        scale = math.ldexp(1.0, arr.size.bit_length() + math.frexp(hi)[1] - 1022)
        arr = arr * (1.0 / scale)
        arr.setflags(write=False)
        if ascending is not None:
            ascending *= 1.0 / scale
        hi /= scale
    if ascending is not None:
        ascending.setflags(write=False)
    return arr, pairwise_sum(arr), hi, scale, ascending


def _real_array(values: object, copy: bool) -> np.ndarray:
    """``values`` as float64, a fresh array when ``copy``; :class:`InvalidIndicatorsError`
    for a complex, date or time dtype, whose cast drops the imaginary part or the
    unit, or no real numbers."""
    try:
        if not hasattr(values, "dtype"):
            # a fresh array, whose dtype tells a sequence of numpy scalars
            values, copy = np.array(values), False
        if values.dtype.kind in "cMm":
            raise InvalidIndicatorsError(f"indicators must be real, got dtype {values.dtype}")
        return (np.array if copy else np.asarray)(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidIndicatorsError(f"indicators must be real numbers: {exc}") from None


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

    ``values`` is a read-only float64 view.  The strategies read the private
    working entries ``_work``: ``values`` itself, or, when ``N * max``
    reaches half the largest double, ``values / _scale`` for a power of two
    that keeps every float sum finite (see :func:`_working`); ``_sum`` and
    ``_max``, both from validation, are their sum and largest entry, and
    ``_sorted``, the sort that validated at most ``_M0`` entries, is their
    read-only ascending copy (``None`` above ``_M0``).  What
    the vector and the strategies report is in the caller's units again:
    :meth:`total`, :meth:`max_value` and :meth:`MarkingOutcome.trusted`
    multiply by ``_scale``.

    A 1-D, C-contiguous, aligned, native float64 array that is read-only,
    over bases that are read-only too and end at an array that owns its data
    or at ``bytes``, is adopted without a copy: ``values`` shares its
    memory.  Every other input is copied, including a read-only view of a
    writeable array, lists, other dtypes, byte-swapped and strided arrays.
    The caller promises not to turn the ``WRITEABLE`` flag of an adopted
    array, or of an array it views, back on; numpy allows that only on an
    array that owns its data.
    """

    __slots__ = ("values", "_work", "_sum", "_max", "_scale", "_sorted")

    def __init__(self, values: Union[Sequence[float], np.ndarray]):
        if _adoptable(values):
            arr = values.view(np.ndarray)
        else:
            owner = _real_array(values, copy=True)
            owner.setflags(write=False)
            # a view, whose flag cannot be turned back on
            arr = owner.view()
        self._work, self._sum, self._max, self._scale, self._sorted = _working(arr)
        self.values = arr

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def total(self) -> float:
        return self._sum * self._scale

    def _goal(self, theta: float) -> float:
        """The goal every strategy cuts against: ``theta`` times the working sum."""
        return theta * self._sum

    def max_value(self) -> float:
        return self._max * self._scale

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

    Raises :class:`MarkingError` for anything but a one-dimensional
    sequence of integers, for a nonempty input without an integer dtype (a
    cast would truncate floats and read a boolean mask as indices), and for
    an integer outside the int64 range, which the cast would wrap.
    """
    try:
        if not isinstance(indices, np.ndarray):
            items = list(indices)
            indices = np.asarray(items)
            # numpy holds Python ints beyond int64 as float64 or object
            if indices.dtype.kind in "fO" and items and all(isinstance(i, int) for i in items):
                big = next(i for i in items if not -(2**63) <= i < 2**63)
                raise MarkingError(f"marked index {big} is outside the int64 range")
    except (TypeError, ValueError) as exc:
        raise MarkingError(f"marked indices must be a sequence of integers: {exc}") from None
    if indices.ndim != 1:
        raise MarkingError(f"marked indices must be one-dimensional, got shape {indices.shape}")
    if indices.dtype.kind not in "iu" and indices.size:
        raise MarkingError(f"marked indices must be integers, got dtype {indices.dtype}")
    if indices.dtype == np.uint64 and indices.size and indices.max() >= 2**63:
        raise MarkingError(f"marked index {int(indices.max())} is outside the int64 range")
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


class MarkingOutcome:
    """A marked index set together with its achieved sum and cardinality.

    ``marked`` is a read-only int64 array, in selection order for
    ``decrement`` and ascending for every other strategy; the minimal ones
    take the lowest-index ties at their cut value through :func:`materialise`.
    ``threshold`` is the smallest marked value, the cut's ``x_star``, for
    the minimal strategies (``quickmark``, ``xstar``, ``sort``), and ``None``
    for ``binning``, ``decrement`` and ``theta == 1``.  The four fields are
    read-only properties.
    """

    __slots__ = ("_marked", "_achieved_sum", "_cardinality", "_threshold")

    def __init__(
        self,
        marked: np.ndarray,
        achieved_sum: float,
        cardinality: int,
        threshold: float | None = None,
    ):
        self._marked = marked
        self._achieved_sum = achieved_sum
        self._cardinality = cardinality
        self._threshold = threshold

    marked = property(attrgetter("_marked"))
    achieved_sum = property(attrgetter("_achieved_sum"))
    cardinality = property(attrgetter("_cardinality"))
    threshold = property(attrgetter("_threshold"))

    def __repr__(self) -> str:
        return (
            f"MarkingOutcome(marked={self._marked!r}, achieved_sum={self._achieved_sum!r}, "
            f"cardinality={self._cardinality!r}, threshold={self._threshold!r})"
        )

    @classmethod
    def from_marked(cls, x: IndicatorInput, indices: Iterable[int]) -> "MarkingOutcome":
        """Validate a caller-supplied set: in range and pairwise distinct."""
        iv = as_indicators(x)
        idx = np.array(index_array(indices))
        if np.count_nonzero(_index_mask(iv.n, idx)) != idx.size:
            raise MarkingError("marked indices must be distinct")
        return cls.trusted(iv, idx)

    @classmethod
    def trusted(
        cls, iv: IndicatorVector, idx: np.ndarray, threshold: float | None = None
    ) -> "MarkingOutcome":
        """Wrap an int64 index array that a marking strategy produced.

        The array must be distinct, in range and owned by the outcome; it is
        not checked, and it is made read-only.  ``threshold`` is a working
        entry; it and the working sum of the set are scaled back into the
        caller's units.
        """
        idx.setflags(write=False)
        if threshold is not None:
            threshold *= iv._scale
        return cls(idx, pairwise_sum(iv._work[idx]) * iv._scale, int(idx.size), threshold)


def criterion_tolerance(x: IndicatorInput) -> float:
    """Absolute slack used by the verification predicate: 4 * N * eps * max(x)."""
    iv = as_indicators(x)
    return 4.0 * iv.n * EPS * iv.max_value()


def goal_value(x: IndicatorInput, theta: float) -> float:
    """The goal ``theta * sum(x)`` the strategies cut against, scaled back once."""
    iv = as_indicators(x)
    theta = check_theta(theta, allow_one=True)
    return iv._goal(theta) * iv._scale


def satisfies_doerfler(x: IndicatorInput, theta: float, marked: Iterable[int]) -> bool:
    """Whether the marked set carries at least the goal value.

    The comparison allows the absolute slack :func:`criterion_tolerance`; this
    predicate is meant for verification, the marking algorithms themselves
    compare without slack.
    """
    iv = as_indicators(x)
    theta = check_theta(theta, allow_one=True)
    # the mask collapses duplicates and sums in ascending index order
    mask = _index_mask(iv.n, index_array(marked))
    marked_sum = pairwise_sum(iv._work[mask])
    return marked_sum >= iv._goal(theta) - criterion_tolerance(iv) / iv._scale


def _is_minimal(iv: IndicatorVector, marked: Iterable[int], v: float) -> bool:
    """Whether ``marked`` is a minimal set of goal ``v``, in the units of the working
    entries; ``oracle.is_valid_minimal_set`` on a validated vector."""
    mask = _index_mask(iv.n, index_array(marked))
    member_vals = iv._work[mask]
    if not member_vals.size:
        return False
    tol = criterion_tolerance(iv) / iv._scale
    rest_vals = iv._work[~mask]
    if rest_vals.size and member_vals.min() < rest_vals.max():
        return False
    total = pairwise_sum(member_vals)
    reduced = pairwise_sum(np.delete(member_vals, np.argmin(member_vals)))
    # in positive form, so that a NaN goal fails
    return total >= v - tol and not (member_vals.size > 1 and reduced >= v + tol)


def mark_theta_one(x: IndicatorInput) -> MarkingOutcome:
    """The unique minimal marking for ``theta == 1``: all strictly positive entries."""
    iv = as_indicators(x)
    return MarkingOutcome.trusted(iv, np.flatnonzero(iv.values > 0.0))

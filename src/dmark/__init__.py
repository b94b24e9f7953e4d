"""Bulk-chasing marking strategies for adaptive refinement.

Given a nonnegative indicator vector and a fraction ``theta``, every strategy
returns an index set whose entries carry at least ``theta`` of the total
indicator mass.  The package provides:

* :func:`dmark.quickmark.quickmark` - minimal cardinality at worst-case
  linear cost (the recommended strategy), plus the destructive
  :func:`dmark.quickmark.xstar_kernel` variant,
* :func:`dmark.sort_mark.sort_mark` - minimal cardinality via a full sort
  (log-linear reference and oracle),
* :func:`dmark.binning.binning_mark` - quasi-minimal at linear cost,
* :func:`dmark.decrement.decrement_mark` - linear cost, no cardinality
  guarantee (historical reference),

together with verification oracles (:mod:`dmark.oracle`), file formats
(:mod:`dmark.io`) and a benchmark harness (:mod:`dmark.bench`, CLI ``dmark``).
"""

from .binning import BinLayout, bin_layout, binning_depth, binning_mark
from .core import (
    AdmissibilityError,
    IndicatorVector,
    InstanceTooLargeError,
    InvalidIndicatorsError,
    MarkingError,
    MarkingOutcome,
    MarkingParams,
    OpCounter,
    ParameterError,
    ParseError,
    ThresholdMismatchError,
    as_indicators,
    criterion_tolerance,
    goal_value,
    mark_theta_one,
    satisfies_doerfler,
)
from .decrement import DecrementState, decrement_mark, decrement_trace
from .markers import ALGORITHM_NAMES, MarkerRun, mark
from .oracle import (
    CounterexampleSpec,
    gen_counterexample,
    is_valid_minimal_set,
    nmin_exhaustive,
    nmin_oracle,
)
from .quickmark import (
    MedianPivot,
    PivotStrategy,
    QuantilePivot,
    QuickMarkResult,
    RandomPivot,
    quickmark,
    set_from_threshold,
    xstar_kernel,
)
from .sort_mark import SortedPrefix, sort_mark, sorted_prefix

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ALGORITHM_NAMES",
    "AdmissibilityError",
    "BinLayout",
    "CounterexampleSpec",
    "DecrementState",
    "IndicatorVector",
    "InstanceTooLargeError",
    "InvalidIndicatorsError",
    "MarkerRun",
    "MarkingError",
    "MarkingOutcome",
    "MarkingParams",
    "MedianPivot",
    "OpCounter",
    "ParameterError",
    "ParseError",
    "PivotStrategy",
    "QuantilePivot",
    "QuickMarkResult",
    "RandomPivot",
    "SortedPrefix",
    "ThresholdMismatchError",
    "as_indicators",
    "bin_layout",
    "binning_depth",
    "binning_mark",
    "criterion_tolerance",
    "decrement_mark",
    "decrement_trace",
    "gen_counterexample",
    "goal_value",
    "is_valid_minimal_set",
    "mark",
    "mark_theta_one",
    "nmin_exhaustive",
    "nmin_oracle",
    "quickmark",
    "satisfies_doerfler",
    "set_from_threshold",
    "sort_mark",
    "sorted_prefix",
    "xstar_kernel",
]

"""Bulk-chasing marking strategies for adaptive refinement.

Given a nonnegative indicator vector and a fraction ``theta``, every strategy
returns an index set whose entries carry at least ``theta`` of the total
indicator mass.  The package provides:

* :func:`dmark.quickmark.quickmark` - minimal cardinality at worst-case
  linear cost (the recommended strategy); its threshold step alone,
  :func:`dmark.quickmark.xstar_kernel`, returns just the threshold,
* :func:`dmark.quickmark.sort_mark` - minimal cardinality via a full sort
  (log-linear reference and oracle), cut by the selection kernel's base case,
* :func:`dmark.binning.binning_mark` - quasi-minimal at O(N + K) cost,
* :func:`dmark.decrement.decrement_mark` - linear cost, no cardinality
  guarantee (historical reference).

All four share one stop rule, ``core._first_reaching``: float prefix sums
decide, and ``math.fsum`` settles the prefixes within rounding of the goal.
``sort`` and ``quickmark``'s base case run it in one sorted cut,
``quickmark._cut``, which decides by float prefix sums alone above
``quickmark._EXACT_MAX`` entries.

Every strategy returns a :class:`dmark.core.MarkingOutcome`, whose
``threshold`` is the cut value of the minimal strategies, and
:func:`dmark.markers.mark` runs any of them by name.  The package also has
verification oracles (:mod:`dmark.oracle`), file formats (:mod:`dmark.io`)
and a file-marking CLI (:mod:`dmark.cli`, command ``dmark``).
"""

from .binning import bin_layout, binning_mark
from .core import (
    AdmissibilityError,
    IndicatorVector,
    InstanceTooLargeError,
    InvalidIndicatorsError,
    MarkingError,
    MarkingOutcome,
    OpCounter,
    ParameterError,
    ParseError,
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
from .quickmark import quickmark, sort_mark, xstar_kernel

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ALGORITHM_NAMES",
    "AdmissibilityError",
    "CounterexampleSpec",
    "DecrementState",
    "IndicatorVector",
    "InstanceTooLargeError",
    "InvalidIndicatorsError",
    "MarkerRun",
    "MarkingError",
    "MarkingOutcome",
    "OpCounter",
    "ParameterError",
    "ParseError",
    "as_indicators",
    "bin_layout",
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
    "sort_mark",
    "xstar_kernel",
]

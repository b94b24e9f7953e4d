"""Uniform dispatch over the marking strategies.

Maps algorithm names to their implementations and routes ``theta == 1`` to
the dedicated positive-support path, which is minimal for every strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .binning import binning_mark
from .core import (
    IndicatorInput,
    MarkingOutcome,
    OpCounter,
    ParameterError,
    as_indicators,
    check_theta,
    mark_theta_one,
)
from .decrement import decrement_mark
from .quickmark import MedianPivot, PivotStrategy, quickmark
from .sort_mark import sort_mark

__all__ = ["ALGORITHM_NAMES", "MarkerRun", "mark"]

ALGORITHM_NAMES = ("sort", "decrement", "binning", "quickmark", "xstar")


@dataclass(frozen=True)
class MarkerRun:
    """Outcome of one marking call, plus the threshold when one exists."""

    algorithm: str
    outcome: MarkingOutcome
    threshold: Optional[float]


def mark(
    x: IndicatorInput,
    theta: float,
    algorithm: str = "quickmark",
    *,
    nu: float = 0.5,
    pivot: PivotStrategy | None = None,
    counter: OpCounter | None = None,
) -> MarkerRun:
    """Run the named strategy; ``theta == 1`` marks the positive support."""
    if algorithm not in ALGORITHM_NAMES:
        raise ParameterError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHM_NAMES}"
        )
    iv = as_indicators(x)
    check_theta(theta, allow_one=True)
    if theta == 1.0:
        return MarkerRun(algorithm, mark_theta_one(iv), None)

    if algorithm == "sort":
        return MarkerRun(algorithm, sort_mark(iv, theta, counter), None)
    if algorithm == "decrement":
        return MarkerRun(algorithm, decrement_mark(iv, theta, nu, counter=counter), None)
    if algorithm == "binning":
        return MarkerRun(algorithm, binning_mark(iv, theta, nu, counter), None)
    if algorithm == "quickmark":
        result = quickmark(iv, theta, pivot or MedianPivot(), counter=counter)
    else:
        # xstar: the same value kernel and materialise step, median rank
        result = quickmark(iv, theta, counter=counter)
    return MarkerRun(algorithm, result.to_outcome(iv), result.x_star)

"""Uniform dispatch over the marking strategies.

Maps algorithm names to their implementations and routes ``theta == 1`` to
the dedicated positive-support path, which is minimal for every strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .quickmark import _quickmark
from .sort_mark import sort_mark

__all__ = ["ALGORITHM_NAMES", "MarkerRun", "mark"]

ALGORITHM_NAMES = ("sort", "decrement", "binning", "quickmark", "xstar")


@dataclass(frozen=True)
class MarkerRun:
    """Outcome of one marking call under the name of its strategy."""

    algorithm: str
    outcome: MarkingOutcome


def mark(
    x: IndicatorInput,
    theta: float,
    algorithm: str = "quickmark",
    *,
    nu: float = 0.5,
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
        outcome = mark_theta_one(iv)
    elif algorithm == "sort":
        outcome = sort_mark(iv, theta, counter)
    elif algorithm == "decrement":
        outcome = decrement_mark(iv, theta, nu, counter=counter)
    elif algorithm == "binning":
        outcome = binning_mark(iv, theta, nu, counter)
    else:
        # quickmark and xstar: the same value kernel and materialise step,
        # on the vector and theta validated above
        outcome = _quickmark(iv, theta, counter)
    return MarkerRun(algorithm, outcome)

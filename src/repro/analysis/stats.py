"""Small statistics helpers used by the experiment harness.

Pure Python on purpose: the quantities here (means over dozens to
hundreds of samples) gain nothing from vectorization, and keeping the
harness dependency-free makes its arithmetic easy to audit.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import ExperimentError


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; errors on empty input (no silent NaN)."""
    if not values:
        raise ExperimentError("mean of an empty sample")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator); 0.0 for n < 2."""
    if not values:
        raise ExperimentError("stdev of an empty sample")
    if len(values) == 1:
        return 0.0
    centre = mean(values)
    return math.sqrt(sum((value - centre) ** 2 for value in values)
                     / (len(values) - 1))


def confidence_interval95(values: Sequence[float]) -> tuple[float, float]:
    """Normal-approximation 95 % confidence interval of the mean."""
    centre = mean(values)
    if len(values) == 1:
        return (centre, centre)
    half = 1.96 * stdev(values) / math.sqrt(len(values))
    return (centre - half, centre + half)


def percent_reduction(baseline: float, improved: float) -> float:
    """``100 * (1 - improved/baseline)``; 0.0 when the baseline is 0.

    A zero baseline means both allocations are already free, so there
    is nothing to reduce -- reporting 0 keeps averages meaningful.
    """
    if baseline == 0:
        return 0.0
    return 100.0 * (1.0 - improved / baseline)

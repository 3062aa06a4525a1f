"""Sample statistics the benchmark reports.

Small on purpose: every number the benchmark prints goes through one of
these, so their rules (interpolation, the percentile sample floor) are
stated once and tested in ``tests/test_stats.py``.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A p90 needs ten samples beyond it (choosing-metrics §1): 100 samples.
P90_MIN_SAMPLES = 100


class InsufficientSamples(ValueError):
    """A percentile was asked of fewer samples than can support it."""


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], share: float) -> float:
    """Linear-interpolated percentile, ``share`` in [0, 1]."""
    if not values:
        raise InsufficientSamples("percentile of no samples")
    if not 0.0 <= share <= 1.0:
        raise ValueError(f"share must be within [0, 1], got {share}")
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def p90(values: Sequence[float]) -> float:
    """The 90th percentile, refused under :data:`P90_MIN_SAMPLES`."""
    if len(values) < P90_MIN_SAMPLES:
        raise InsufficientSamples(
            f"p90 needs >= {P90_MIN_SAMPLES} samples (ten beyond it), "
            f"got {len(values)}"
        )
    return percentile(values, 0.9)


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise InsufficientSamples("geomean of no samples")
    if min(values) <= 0.0:
        raise ValueError("geomean needs positive values")
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    The acceptance rule of the benchmark contract: the first and third
    quartile as ``statistics.quantiles(values, n=4)`` gives them.
    """
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / median(values)

"""Summary statistics of the benchmark's samples.

A percentile is reported only when at least :data:`TAIL_SAMPLES`
samples lie beyond it; otherwise it would describe a handful of
outliers rather than a tail.
"""

import math
import statistics

TAIL_SAMPLES = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def samples_needed(fraction: float) -> int:
    """The fewest samples for which the ``fraction`` percentile has
    :data:`TAIL_SAMPLES` samples beyond it (e.g. 200 for 0.95)."""
    count = math.ceil(TAIL_SAMPLES / (1.0 - fraction))
    while _beyond(count, fraction) < TAIL_SAMPLES:
        count += 1
    return count


def _rank(count: int, fraction: float) -> int:
    # Nearest rank, computed in integers where possible so that 0.95
    # of 200 is exactly 190 and not 190.00000000000003.
    return max(1, math.ceil(round(fraction * count, 9)))


def _beyond(count: int, fraction: float) -> int:
    return count - _rank(count, fraction)


def percentile(values, fraction: float):
    """The nearest-rank ``fraction`` percentile of ``values``.

    Raises ValueError when fewer than :data:`TAIL_SAMPLES` samples lie
    beyond it.
    """
    ordered = sorted(values)
    beyond = _beyond(len(ordered), fraction)
    if beyond < TAIL_SAMPLES:
        raise ValueError(
            f"{len(ordered)} samples leave {beyond} beyond the "
            f"{fraction:g} percentile; {TAIL_SAMPLES} are needed")
    return ordered[_rank(len(ordered), fraction) - 1]

"""Order statistics for the benchmark: medians, quartiles, tail percentiles."""

from __future__ import annotations

#: Percentiles a tail metric may be reported at, lowest first.
TAIL_CANDIDATES = (50, 75, 90, 95, 99)

#: A percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """The ``p``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def highest_supported_percentile(n: int) -> int | None:
    """The highest of :data:`TAIL_CANDIDATES` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or ``None``."""
    supported = [p for p in TAIL_CANDIDATES if n * (100 - p) / 100.0 >= MIN_BEYOND]
    return max(supported) if supported else None


def dist(values: list[float], unit: str, *, p: float = 50) -> dict:
    """One reported metric: the ``p``-th percentile of ``values`` with
    the quartiles and the sample count beside it."""
    return {
        "value": percentile(values, p),
        "unit": unit,
        "q1": percentile(values, 25),
        "q3": percentile(values, 75),
        "n": len(values),
    }


def scalar(value: float, unit: str) -> dict:
    """A metric that is one measurement, not a distribution."""
    return {"value": value, "unit": unit, "q1": value, "q3": value, "n": 1}


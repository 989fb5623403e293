"""Statistics for the repository benchmark (tests: test_stats.py)."""

import math
import statistics

# A percentile is published only when at least this many samples lie
# beyond it; below that, one slow sample decides the number.
MIN_BEYOND = 10


def median(xs):
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def percentile(xs, p):
    """Nearest-rank p-th percentile, or None when fewer than MIN_BEYOND
    samples lie above its rank."""
    if not 0 < p < 100:
        raise ValueError("percentile must lie in (0, 100)")
    n = len(xs)
    rank = max(1, math.ceil(p / 100 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(xs)[rank - 1]


def geomean(xs):
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def quartile_spread(xs):
    """(Q3 - Q1) / median over repeated runs, quartiles as
    statistics.quantiles(xs, n=4) gives them; 0 when the median is 0."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    m = median(xs)
    return (q3 - q1) / m if m else 0.0

"""Summary statistics shared by the end-to-end and per-layer metrics."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10
TAIL_FLOOR = 0.75


def median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def tail(xs) -> dict:
    """The tail of a sample: the highest percentile with ten samples beyond it, at least p75.

    By nearest rank, the higher of the 75th percentile and the sample with
    exactly ten larger ones.  A run of a workload with slow states holds few
    samples: below 40 the rule alone sits under the 75th percentile, and
    below 21 at or under the median, so the 75th percentile stands in.
    Returns the value, the percentile used and the sample count.
    """
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return {"value": 0.0, "percentile": 0.0, "n": 0}
    rank = max(math.ceil(TAIL_FLOOR * n), n - TAIL_BEYOND)
    return {"value": float(xs[rank - 1]), "percentile": 100.0 * rank / n, "n": n}

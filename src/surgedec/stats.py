"""Small statistics helpers for trial summaries."""

from __future__ import annotations

import math


# two-sided 95 % normal quantile
_Z = 1.96


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Wilson score 95 % interval for a binomial proportion.

    Well behaved near 0 and 1, unlike the normal approximation, which
    matters because logical error rates live close to zero.
    """
    if n <= 0:
        raise ValueError("need at least one trial")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside [0, {n}]")
    phat = k / n
    z2 = _Z * _Z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = (_Z / denom) * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def intervals_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


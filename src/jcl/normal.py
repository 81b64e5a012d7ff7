"""Standard normal CDF and quantile, self-contained.

The CDF goes through the complementary error function; the quantile is
the standard library's ``NormalDist.inv_cdf`` (Wichura's algorithm
AS 241, relative error near 1e-16).  Downstream interval decoding
relies on ``|cdf(quantile(p)) - p|`` staying below 1e-8 across (0, 1).
No dependency beyond the standard library.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x: float) -> float:
    """P(Z <= x) for standard normal Z."""
    if math.isnan(x):
        raise ValueError("normal_cdf of nan")
    if x == math.inf:
        return 1.0
    if x == -math.inf:
        return 0.0
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of :func:`normal_cdf` on [0, 1].

    The boundary points map to the infinite sentinels -inf and +inf;
    arguments outside [0, 1] are rejected.
    """
    if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
        raise ValueError(f"quantile argument must lie in [0, 1], got {p!r}")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if p == 0.5:
        return 0.0
    from statistics import NormalDist  # deferred: the detecting lottery never needs it
    return NormalDist().inv_cdf(p)

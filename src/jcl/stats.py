"""Empirical distributions over outcome labels and the distance / margin
helpers used by every verification gate in the package.

All bounds are distribution-free: the simultaneous deviation margin is
a union-bounded Hoeffding interval, and the one-sided excess feeds the
"no label can be pushed above its target mass" security checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OutcomeSet, ProbabilityVector


@dataclass
class EmpiricalDistribution:
    """Outcome counts over a fixed label set."""

    outcomes: OutcomeSet
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (self.outcomes.size,):
            raise ValueError(
                f"counts shape {counts.shape} does not match {self.outcomes.size} labels"
            )
        if np.any(counts < 0):
            raise ValueError("negative count")
        self.counts = counts

    @classmethod
    def from_indices(cls, outcomes: OutcomeSet, idx: np.ndarray) -> "EmpiricalDistribution":
        """Tally outcome indices; entries < 0 (non-outcomes) are ignored."""
        idx = np.asarray(idx)
        idx = idx[idx >= 0]
        counts = np.bincount(idx, minlength=outcomes.size)
        if counts.size > outcomes.size:
            raise ValueError("outcome index out of range")
        return cls(outcomes, counts.astype(np.int64))

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def freq(self) -> np.ndarray:
        if self.n == 0:
            raise ValueError("empirical frequencies are undefined on zero samples")
        return self.counts / self.n


def linf_distance(emp: EmpiricalDistribution, target: ProbabilityVector) -> float:
    """Largest absolute per-label gap between frequencies and target."""
    if target.outcomes != emp.outcomes:
        raise ValueError("target distribution is over a different outcome set")
    return float(np.max(np.abs(emp.freq() - target.mass)))


def hoeffding_margin(n: int, num_labels: int, delta: float) -> float:
    """Simultaneous two-sided deviation margin.

    With probability at least 1 - delta, every one of ``num_labels``
    binomial frequencies over ``n`` i.i.d. samples sits within this
    margin of its mean (union bound over labels, two tails each).
    """
    if not (isinstance(n, (int, np.integer)) and n > 0):
        raise ValueError(f"sample count must be a positive integer, got {n!r}")
    if not (isinstance(num_labels, (int, np.integer)) and num_labels > 0):
        raise ValueError(f"label count must be a positive integer, got {num_labels!r}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"confidence parameter delta must lie in (0, 1), got {delta!r}")
    return math.sqrt(math.log(2.0 * num_labels / delta) / (2.0 * n))

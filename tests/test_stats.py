import math

import numpy as np
import pytest

from jcl.core import OutcomeSet, ProbabilityVector
from jcl.stats import (
    EmpiricalDistribution,
    hoeffding_margin,
    linf_distance,
)

S2 = OutcomeSet(("a", "b"))
S3 = OutcomeSet(("a", "b", "c"))


class TestEmpirical:
    def test_from_indices_skips_negatives(self):
        e = EmpiricalDistribution.from_indices(S2, np.array([0, 1, -1, 0, -1]))
        assert e.n == 3
        assert list(e.counts) == [2, 1]

    def test_freq_needs_samples(self):
        e = EmpiricalDistribution(S2, [0, 0])
        with pytest.raises(ValueError):
            e.freq()


class TestDistances:
    def test_frozen_examples(self):
        e = EmpiricalDistribution(S2, np.array([30, 70]))
        t = ProbabilityVector(S2, [0.25, 0.75])
        assert linf_distance(e, t) == pytest.approx(0.05)

    def test_metric_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            xs = [
                EmpiricalDistribution(S3, rng.integers(1, 40, size=3))
                for _ in range(3)
            ]
            ts = [ProbabilityVector(S3, x.freq()) for x in xs]
            d01 = linf_distance(xs[0], ts[1])
            d10 = linf_distance(xs[1], ts[0])
            assert d01 == pytest.approx(d10)
            d02 = linf_distance(xs[0], ts[2])
            d12 = linf_distance(xs[1], ts[2])
            assert d02 <= d01 + d12 + 1e-15

    def test_mismatched_labels_rejected(self):
        e = EmpiricalDistribution(S2, np.array([1, 1]))
        t = ProbabilityVector(S3, [0.3, 0.3, 0.4])
        with pytest.raises(ValueError):
            linf_distance(e, t)


class TestMargin:
    def test_frozen_value(self):
        assert hoeffding_margin(100_000, 2, 0.01) == pytest.approx(0.0054733, abs=1e-6)

    def test_formula(self):
        n, labels, delta = 5000, 4, 0.05
        expected = math.sqrt(math.log(2 * labels / delta) / (2 * n))
        assert hoeffding_margin(n, labels, delta) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            hoeffding_margin(0, 2, 0.01)
        with pytest.raises(ValueError):
            hoeffding_margin(100, 0, 0.01)
        with pytest.raises(ValueError):
            hoeffding_margin(100, 2, 0.0)
        with pytest.raises(ValueError):
            hoeffding_margin(100, 2, 1.0)

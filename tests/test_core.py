import numpy as np
import pytest

from jcl.core import (
    ALPHA,
    BETA,
    BinaryCoinPair,
    BinaryPartition,
    OutcomeSet,
    ProbabilityVector,
    device_streams,
    letter_from_name,
    substream,
)


def test_letters_and_names():
    assert ALPHA == 0 and BETA == 1
    assert letter_from_name("alpha") == ALPHA
    assert letter_from_name("beta") == BETA
    with pytest.raises(ValueError):
        letter_from_name("gamma")


class TestOutcomeSet:
    def test_basic(self):
        s = OutcomeSet(("a", "b", "c"))
        assert s.size == 3
        assert s.index("b") == 1
        assert "c" in s and "z" not in s
        assert list(s) == ["a", "b", "c"]

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            OutcomeSet(("a", "a"))
        with pytest.raises(ValueError):
            OutcomeSet(())
        with pytest.raises(ValueError):
            OutcomeSet(("a", ""))


class TestProbabilityVector:
    def test_validation(self):
        s = OutcomeSet(("x", "y"))
        pv = ProbabilityVector(s, [0.25, 0.75])
        assert pv.mass_of("y") == 0.75
        with pytest.raises(ValueError):
            ProbabilityVector(s, [0.6, 0.6])
        with pytest.raises(ValueError):
            ProbabilityVector(s, [-0.1, 1.1])

    def test_dirac_and_support(self):
        s = OutcomeSet(("x", "y", "z"))
        d = ProbabilityVector.dirac(s, "y")
        assert d.is_dirac
        assert d.support() == ("y",)
        u = ProbabilityVector.uniform(s)
        assert not u.is_dirac
        assert u.support() == ("x", "y", "z")

    def test_from_dict_keeps_key_order(self):
        pv = ProbabilityVector.from_dict({"b": 0.3, "a": 0.7})
        assert pv.outcomes.labels == ("b", "a")
        assert pv.as_dict() == {"b": 0.3, "a": 0.7}


class TestBinaryCoinPair:
    def test_c0_c1(self):
        coins = BinaryCoinPair(0.3, 0.7)
        assert coins.c0 == pytest.approx(0.3)
        assert coins.c1 == pytest.approx(0.09)
        assert coins.prob(1, ALPHA) == 0.3
        assert coins.prob(2, BETA) == pytest.approx(0.3)

    def test_degenerate_rejected_with_hypothesis_message(self):
        with pytest.raises(ValueError, match="positive-probability hypothesis"):
            BinaryCoinPair(0.0, 0.5)
        with pytest.raises(ValueError, match="positive-probability hypothesis"):
            BinaryCoinPair(0.5, 1.0)

    def test_dict_round_trip(self):
        coins = BinaryCoinPair(0.25, 0.8)
        assert BinaryCoinPair.from_dict(coins.as_dict()) == coins
        with pytest.raises(ValueError):
            BinaryCoinPair.from_dict({"p1_alpha": 0.5, "p2_alpha": 0.5, "bogus": 1})


class TestBinarize:
    def test_partition_and_letters(self):
        s = OutcomeSet(("x", "y", "z"))
        part = BinaryPartition(s, frozenset({"x", "y"}))
        assert part.letter_of("x") == ALPHA
        assert part.letter_of("z") == BETA

    def test_improper_partition_rejected(self):
        s = OutcomeSet(("x", "y"))
        with pytest.raises(ValueError):
            BinaryPartition(s, frozenset({"x", "y"}))
        with pytest.raises(ValueError):
            BinaryPartition(s, frozenset({"q"}))


class TestStreams:
    def test_substream_determinism(self):
        a = substream(42, "x", 1).random(5)
        b = substream(42, "x", 1).random(5)
        assert np.array_equal(a, b)

    def test_substream_label_separation(self):
        a = substream(42, "x").random(5)
        b = substream(42, "y").random(5)
        c = substream(43, "x").random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_device_streams_are_distinct(self):
        d1, d2, h = device_streams(7, "run", 0)
        vals = {float(d1.random()), float(d2.random()), float(h.random())}
        assert len(vals) == 3


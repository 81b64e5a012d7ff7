import pytest

from jcl.adversaries import (
    Constant,
    Honest,
    Push,
    Stall,
    default_suite,
    parse_adversary,
)
from jcl.core import ALPHA, BETA


def test_names():
    assert Honest().name == "honest"
    assert Constant(ALPHA).name == "constant:alpha"
    assert Constant(BETA).name == "constant:beta"
    assert Push("j2").name == "push:j2"
    assert Stall().name == "stall"


def test_constant_validates_letter():
    with pytest.raises(ValueError):
        Constant(2)


def test_parse_round_trip():
    for spec in (Honest(), Constant(ALPHA), Constant(BETA), Push("a"), Stall()):
        assert parse_adversary(spec.name) == spec


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_adversary("sneaky")
    with pytest.raises(ValueError):
        parse_adversary("constant:gamma")
    with pytest.raises(ValueError):
        parse_adversary("push:")


def test_default_suite_composition():
    suite = default_suite(("a", "b", "c"))
    names = [s.name for s in suite]
    assert names == [
        "constant:alpha",
        "constant:beta",
        "push:a",
        "push:b",
        "push:c",
        "stall",
    ]

"""Adversary strategy suite for single-device attacks.

An adversary controls exactly one device while the other stays honest.
Each entry here is a declarative spec.  Each mechanism module writes
every spec's letter rule once, as one array rule over many runs: the
batch engine applies it to all its runs, and the one-run transcript
runner applies the same rule to one-element arrays.

The suite is finite and heuristic by design: it refutes broken
mechanisms cheaply but never proves security.  Names accepted from
configuration files:

    "honest"            no attack, stationary coin letters
    "constant:alpha"    always alpha (likewise "constant:beta")
    "push:<label>"      greedy one-step bias toward an outcome label
    "stall"             prolong the run as much as possible
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ALPHA, BETA, letter_from_name


@dataclass(frozen=True)
class Honest:
    name: str = "honest"


@dataclass(frozen=True)
class Constant:
    """Emit one fixed letter every stage."""

    letter: int

    def __post_init__(self):
        if self.letter not in (ALPHA, BETA):
            raise ValueError(f"letter must be ALPHA or BETA, got {self.letter}")

    @property
    def name(self) -> str:
        return f"constant:{'alpha' if self.letter == ALPHA else 'beta'}"


@dataclass(frozen=True)
class Push:
    """Greedy push toward ``target``.

    In the bounded lottery both letters leave the conditional expected
    score at zero, so the bound rule works the step distribution and
    the clock instead: while the running sum is far from the target
    cell's aim point it plays the letter most likely to step toward
    it; once within one max-score it switches for good to the letter
    that advances the clock fastest, racing the stop before the sum
    can diffuse back out.  In the fault-revealing lottery it plays the
    letter whose best-case successor puts the most mass on the target.
    """

    target: str

    @property
    def name(self) -> str:
        return f"push:{self.target}"


@dataclass(frozen=True)
class Stall:
    """Prolong the run.

    Bounded lottery: minimize the expected squared score each stage
    (slows the variance clock; cannot beat the hard stage bound).
    Fault-revealing lottery: avoid the device's own shrink letter, the
    only behavior that delays termination indefinitely and exactly the
    signature the fault detector looks for.
    """

    name: str = "stall"


AdversarySpec = Honest | Constant | Push | Stall


def checked_spec(adversary: AdversarySpec | None, device: int) -> AdversarySpec:
    """The spec an engine plays on ``device``: ``adversary``, or honest
    play when it is None.  The other device is always honest."""
    if device not in (1, 2):
        raise ValueError(f"adversary_device must be 1 or 2, got {device}")
    spec = adversary if adversary is not None else Honest()
    if not isinstance(spec, AdversarySpec):
        raise TypeError(f"engines need an adversary spec, got {spec!r}")
    return spec


def parse_adversary(name: str) -> AdversarySpec:
    """Parse a configuration-file adversary name."""
    if name == "honest":
        return Honest()
    if name == "stall":
        return Stall()
    kind, sep, arg = name.partition(":")
    if sep:
        if kind == "constant":
            return Constant(letter_from_name(arg))
        if kind == "push":
            if not arg:
                raise ValueError("push adversary needs a target label, e.g. 'push:j2'")
            return Push(arg)
    raise ValueError(
        f"unknown adversary {name!r}; expected 'honest', 'constant:alpha', "
        "'constant:beta', 'push:<label>', or 'stall'"
    )


def default_suite(labels: tuple[str, ...]) -> list[AdversarySpec]:
    """Standard attack suite for an outcome set: constants, pushes, stall."""
    suite: list[AdversarySpec] = [Constant(ALPHA), Constant(BETA)]
    suite.extend(Push(l) for l in labels)
    suite.append(Stall())
    return suite

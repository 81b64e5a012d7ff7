"""Shared domain types for two-device letter-stream mechanisms.

Two independent randomization devices emit letters from the binary
alphabet {alpha, beta}, stage by stage.  Device ``i`` is *honest* when
its letters are i.i.d. draws from a fixed biased coin.  Every mechanism
in this package (the bounded score lottery, the unbounded
fault-revealing lottery, the quitting-game construction on top of them)
is built from the primitives defined here: outcome sets, probability
vectors, coin pairs, binary partitions of larger alphabets, transcripts,
and seeded random streams.

Letters are represented as the integers ``ALPHA = 0`` and ``BETA = 1``
throughout; string names appear only at I/O boundaries.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

ALPHA = 0
BETA = 1
LETTER_NAMES = ("alpha", "beta")

#: absolute tolerance for probability-vector normalization checks
MASS_ATOL = 1e-12


def letter_from_name(name: str) -> int:
    try:
        return LETTER_NAMES.index(name)
    except ValueError:
        raise ValueError(f"unknown letter {name!r}, expected one of {LETTER_NAMES}") from None


def is_json_number(value) -> bool:
    # JSON numbers only: a bool is an int to Python, and strings are not
    # coerced
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_number(value, key: str) -> float:
    """Config value ``value`` as a float; strings, bools and other
    non-numbers are refused with a message naming ``key``."""
    if not is_json_number(value):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class OutcomeSet:
    """Finite ordered set of distinct outcome labels.

    The listing order is canonical: every probability vector, interval
    partition, and CSV/JSON serialization over this set uses it.
    """

    labels: tuple[str, ...]

    def __init__(self, labels: Sequence[str]):
        labels = tuple(labels)
        if not labels:
            raise ValueError("an outcome set needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError(f"outcome labels must be distinct, got {labels}")
        if not all(isinstance(l, str) and l for l in labels):
            raise ValueError("outcome labels must be non-empty strings")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"label {label!r} not in outcome set {self.labels}") from None

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __iter__(self):
        return iter(self.labels)


@dataclass(frozen=True)
class ProbabilityVector:
    """Probability distribution over an :class:`OutcomeSet`.

    Weights live in [0, 1] and must sum to 1 within ``MASS_ATOL``.  The
    mass array is stored as read-only float64 in canonical label order.
    """

    outcomes: OutcomeSet
    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=np.float64).copy()
        if mass.shape != (self.outcomes.size,):
            raise ValueError(
                f"mass shape {mass.shape} does not match outcome set of size {self.outcomes.size}"
            )
        if np.any(mass < 0.0) or np.any(mass > 1.0):
            raise ValueError(f"weights must lie in [0, 1], got {mass}")
        total = float(mass.sum())
        if abs(total - 1.0) > MASS_ATOL:
            raise ValueError(f"weights sum to {total!r}, not 1 within {MASS_ATOL}")
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @classmethod
    def from_dict(cls, weights: dict[str, float]) -> "ProbabilityVector":
        """Build from a label -> mass mapping; key order is canonical."""
        outcomes = OutcomeSet(tuple(weights.keys()))
        mass = [json_number(m, f"mass of {label!r}") for label, m in weights.items()]
        return cls(outcomes, np.array(mass))

    @classmethod
    def uniform(cls, outcomes: OutcomeSet) -> "ProbabilityVector":
        return cls(outcomes, np.full(outcomes.size, 1.0 / outcomes.size))

    @classmethod
    def dirac(cls, outcomes: OutcomeSet, label: str) -> "ProbabilityVector":
        mass = np.zeros(outcomes.size)
        mass[outcomes.index(label)] = 1.0
        return cls(outcomes, mass)

    def mass_of(self, label: str) -> float:
        return float(self.mass[self.outcomes.index(label)])

    def support(self) -> tuple[str, ...]:
        return tuple(l for l, m in zip(self.outcomes.labels, self.mass) if m > 0.0)

    @property
    def is_dirac(self) -> bool:
        return int(np.count_nonzero(self.mass)) == 1

    def as_dict(self) -> dict[str, float]:
        return {l: float(m) for l, m in zip(self.outcomes.labels, self.mass)}


@dataclass(frozen=True)
class BinaryCoinPair:
    """Stationary letter probabilities of the two honest devices.

    ``p1_alpha`` and ``p2_alpha`` are the probabilities that device 1
    and device 2 emit alpha.  Both must lie strictly inside (0, 1) so
    that every letter of every device has positive probability; the
    security of both mechanisms degrades with the derived floor
    constants and breaks entirely at the boundary.
    """

    p1_alpha: float
    p2_alpha: float

    def __post_init__(self):
        for name, p in (("p1_alpha", self.p1_alpha), ("p2_alpha", self.p2_alpha)):
            if not (isinstance(p, (int, float)) and math.isfinite(p) and 0.0 < p < 1.0):
                raise ValueError(
                    f"{name}={p!r} violates the positive-probability hypothesis: "
                    "each letter of each device must have probability strictly inside (0, 1)"
                )

    @property
    def c0(self) -> float:
        """Smallest single-letter probability across both devices."""
        return min(self.p1_alpha, 1.0 - self.p1_alpha, self.p2_alpha, 1.0 - self.p2_alpha)

    @property
    def c1(self) -> float:
        """Smallest probability of a specific letter pair under honest play."""
        return min(
            self.p1_alpha * self.p2_alpha,
            self.p1_alpha * (1.0 - self.p2_alpha),
            (1.0 - self.p1_alpha) * self.p2_alpha,
            (1.0 - self.p1_alpha) * (1.0 - self.p2_alpha),
        )

    def prob(self, device: int, letter: int) -> float:
        """Probability that honest ``device`` (1 or 2) emits ``letter``."""
        if device not in (1, 2):
            raise ValueError(f"device must be 1 or 2, got {device}")
        p_alpha = self.p1_alpha if device == 1 else self.p2_alpha
        return p_alpha if letter == ALPHA else 1.0 - p_alpha

    def as_dict(self) -> dict[str, float]:
        return {"p1_alpha": self.p1_alpha, "p2_alpha": self.p2_alpha}

    @classmethod
    def from_dict(cls, d: dict[str, float]) -> "BinaryCoinPair":
        extra = set(d) - {"p1_alpha", "p2_alpha"}
        if extra:
            raise ValueError(f"unknown coin keys {sorted(extra)}")
        if set(d) != {"p1_alpha", "p2_alpha"}:
            raise ValueError("coins need exactly the keys p1_alpha and p2_alpha")
        return cls(json_number(d["p1_alpha"], "p1_alpha"), json_number(d["p2_alpha"], "p2_alpha"))


@dataclass(frozen=True)
class BinaryPartition:
    """Split of a finite alphabet into an alpha part and a beta part."""

    source: OutcomeSet
    to_alpha: frozenset[str]

    def __post_init__(self):
        to_alpha = frozenset(self.to_alpha)
        unknown = to_alpha - set(self.source.labels)
        if unknown:
            raise ValueError(f"partition members {sorted(unknown)} not in source alphabet")
        if not to_alpha or len(to_alpha) == len(self.source.labels):
            raise ValueError("binary partition must be a nonempty proper subset of the alphabet")
        object.__setattr__(self, "to_alpha", to_alpha)

    def letter_of(self, label: str) -> int:
        self.source.index(label)
        return ALPHA if label in self.to_alpha else BETA


# --------------------------------------------------------------------------
# transcripts


@dataclass
class Transcript:
    """Public per-stage record of one mechanism run.

    ``stages`` holds mechanism-specific per-stage records (letter pair
    plus a snapshot; see the mechanism modules).  ``terminal`` is a
    short string describing how the run ended.
    """

    stages: list = field(default_factory=list)
    terminal: str | None = None

    def __len__(self) -> int:
        return len(self.stages)


# --------------------------------------------------------------------------
# seeded substreams


def substream(root_seed: int, *labels: str | int) -> np.random.Generator:
    """Named child stream of a root seed.

    The same ``(root_seed, labels)`` always yields the same stream, and
    distinct label paths yield independent streams.  Labels are hashed,
    so stream identity does not depend on call order anywhere else in
    the program.
    """
    words: list[int] = [int(root_seed) & 0xFFFFFFFFFFFFFFFF]
    for label in labels:
        digest = hashlib.sha256(repr(label).encode()).digest()[:16]
        words.extend(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    return np.random.default_rng(np.random.SeedSequence(words))


def device_streams(root_seed: int, *context: str | int) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """Streams (device 1, device 2, harness) for one experiment context."""
    return (
        substream(root_seed, *context, "device1"),
        substream(root_seed, *context, "device2"),
        substream(root_seed, *context, "harness"),
    )


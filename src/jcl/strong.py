"""Bounded jointly controlled lottery driven by two biased coin devices.

Each stage both devices emit one letter.  A public score table turns
the pair into a zero-mean increment, a variance clock accumulates the
squared increments, and play stops the first stage the clock reaches
the budget ``C``.  The normalized running sum is then decoded into an
outcome through a quantile partition of the standard normal line.

Every table entry is bounded away from zero, so each stage moves the
clock forward by a guaranteed amount and the stage count is hard
capped no matter what either device does.  A single dishonest device
can neither stall the run nor shift any outcome probability by more
than an amount that vanishes as ``C`` grows.

Two execution paths share the same definitions: :func:`run_strong`
plays one run stage by stage and records its transcript, while
:func:`simulate_strong` advances many runs at once and is exact in
distribution, not an approximation.  Each adversary spec's letter
rule lives only in its :class:`_StrongPlan`: the batch engine steers
its active runs with the plan, and :func:`run_strong` steers its one
run with the same plan on one-element arrays.

The batch engine jumps each run a block sized by its own letter law,
the largest ``m`` with ``m*mu + 4*sigma*sqrt(m)`` inside the remaining
budget, and draws the block's pair counts from binomial chains.  Runs
with only a few dozen stages left finish in windows of per-stage
draws, and the rare block that does cross the budget is bisected by
hypergeometric splits down to its exact stop.  Both paths keep
integer pair counts and stop by one clock, the counts dotted with the
squared scores, so a letter sequence stops at the same stage whichever
path plays it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adversaries import AdversarySpec, Constant, Honest, Stall, checked_spec, default_suite
from .core import (
    ALPHA,
    BETA,
    BinaryCoinPair,
    OutcomeSet,
    ProbabilityVector,
    Transcript,
    device_streams,
)
from .normal import normal_quantile
from .stats import EmpiricalDistribution, hoeffding_margin, linf_distance

# Block cap: keeps binomial/hypergeometric parameters well inside the
# generator's supported range while still jumping millions of stages.
M_MAX = 1 << 24

# Block jumps keep K=_JUMP_SIGMAS deviations of room below the budget;
# shorter jumps than _TAIL_MIN become windows of _TAIL per-stage draws.
_JUMP_SIGMAS = 4.0
_TAIL_MIN = 16
_TAIL = 32
_TAIL_ROWS = 512

# Aim points are clamped here; reachable normalized sums stay near
# [-1.2, 1.2], so +-40 is an effective infinity for the push rule.
_AIM_CLAMP = 40.0

# calibrate_C accepts a level when every probe is within epsilon/2 plus
# the Hoeffding margin at this failure probability.
CALIBRATION_DELTA = 0.01

# Pair order everywhere: index = 2*a1 + a2 over (aa, ab, ba, bb).
_PAIR_IDS = np.arange(4).reshape(4, 1, 1)


def _dot(counts, v):
    """``sum_j counts[j] * v[j]`` in one fixed order, over pair-first counts.

    Every engine stops by ``_dot(counts, w**2) >= C``, so no block
    schedule or summation order can move a stopping stage.
    """
    return ((counts[0] * v[0] + counts[1] * v[1]) + counts[2] * v[2]) + counts[3] * v[3]


def _pair_probs(p1, p2):
    """Stack the four pair probabilities for scalar or array marginals."""
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    return np.stack([p1 * p2, p1 * (1.0 - p2), (1.0 - p1) * p2, (1.0 - p1) * (1.0 - p2)], axis=-1)


@dataclass(frozen=True)
class ScoreTable:
    """Zero-mean score table w(a1, a2) built from the two coin biases.

    Rows have mean zero under device 2's honest marginal and columns
    under device 1's, which is what makes the running sum a martingale
    whenever at least one device is honest.
    """

    coins: BinaryCoinPair
    values: np.ndarray  # shape (2, 2), w[a1, a2]

    @classmethod
    def from_coins(cls, coins: BinaryCoinPair) -> "ScoreTable":
        s1a, s1b = coins.prob(1, ALPHA), coins.prob(1, BETA)
        s2a, s2b = coins.prob(2, ALPHA), coins.prob(2, BETA)
        w = np.array([[-s1b * s2b, +s1b * s2a], [+s1a * s2b, -s1a * s2a]], dtype=np.float64)
        w.setflags(write=False)
        table = cls(coins, w)
        table._check_zero_mean()
        return table

    def _check_zero_mean(self) -> None:
        s1 = np.array([self.coins.prob(1, ALPHA), self.coins.prob(1, BETA)])
        s2 = np.array([self.coins.prob(2, ALPHA), self.coins.prob(2, BETA)])
        rows = self.values @ s2
        cols = s1 @ self.values
        if np.max(np.abs(rows)) > 1e-12 or np.max(np.abs(cols)) > 1e-12:
            raise ValueError("score table lost the zero-mean property")

    def score(self, a1: int, a2: int) -> float:
        return float(self.values[a1, a2])

    @property
    def flat(self) -> np.ndarray:
        """Entries in pair order (aa, ab, ba, bb)."""
        return self.values.reshape(4)

    @property
    def min_abs(self) -> float:
        return float(np.min(np.abs(self.values)))

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def honest_second_moment(self) -> float:
        """E[w(A1, A2)^2] when both devices play their coins."""
        p = _pair_probs(self.coins.prob(1, ALPHA), self.coins.prob(2, ALPHA))
        return float(p @ (self.flat**2))

    def stage_cap(self, C: float) -> int:
        """Hard stage bound: every increment squares to at least min_abs^2."""
        return math.ceil(C / self.min_abs**2)

    def _moments_given(self, device: int) -> np.ndarray:
        """E[w^2] per letter of ``device`` when the other device is honest."""
        other = 2 if device == 1 else 1
        marg = np.array([self.coins.prob(other, ALPHA), self.coins.prob(other, BETA)])
        w2 = self.values**2
        return w2 @ marg if device == 1 else marg @ w2

    def stall_letter(self, device: int) -> int:
        """Letter minimizing the clock's expected advance for ``device``."""
        cond = self._moments_given(device)
        return ALPHA if cond[ALPHA] <= cond[BETA] else BETA

    def rush_letter(self, device: int) -> int:
        """Letter maximizing the clock's expected advance for ``device``."""
        cond = self._moments_given(device)
        return ALPHA if cond[ALPHA] >= cond[BETA] else BETA

    def second_moment_given(self, device: int, letter: int) -> float:
        """E[w^2] when ``device`` plays ``letter`` and the other is honest."""
        return float(self._moments_given(device)[letter])


class IntervalPartition:
    """Quantile partition of the normal line matching a target vector.

    Cell ``j`` is the left-open right-closed interval (b[j], b[j+1]]
    with breakpoints at the normal quantiles of the cumulative target
    masses.  Zero-mass labels get empty cells.
    """

    def __init__(self, target: ProbabilityVector):
        self.target = target
        self.outcomes = target.outcomes
        cums = np.concatenate([[0.0], np.cumsum(target.mass)])
        cums[-1] = 1.0
        self.cums = cums
        self.breakpoints = np.array([normal_quantile(c) for c in cums])
        # Boundary membership: a sum landing exactly on an inner
        # breakpoint belongs to the cell on its left.
        self._inner = self.breakpoints[1:-1]

    def label_of(self, z: float) -> str:
        return self.outcomes.labels[self.index_of(z)]

    def index_of(self, z: float) -> int:
        return int(np.searchsorted(self._inner, z, side="left"))

    def indices_of(self, z: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._inner, z, side="left").astype(np.int64)

    def aim(self, index: int) -> float:
        """Interior aim point of a cell: quantile of its mid cumulative."""
        mid = 0.5 * (self.cums[index] + self.cums[index + 1])
        return normal_quantile(mid)


@dataclass(frozen=True)
class _StrongPlan:
    """The one definition of an adversary spec's letter rule, bound to a
    device and budget of the bounded lottery.

    The device is always in one of three states, alpha (0), beta (1) or
    its own coin (2); ``p_of`` holds each state's alpha probability and
    every run starts in ``start``.  Only the push rule ever changes
    state: it reviews every ``review`` stages and holds its letter in
    between, so any block inside one review window is exactly a run of
    i.i.d. letters.  The window is about 1/32 of the expected honest
    run, and the finish radius ``reach`` is the diffusion scale of one
    window (at least one maximal score), past which further steering
    cannot help.
    """

    p_of: np.ndarray
    start: int
    w: np.ndarray
    review: int = 0         # 0: the state never changes
    aim_sum: float = 0.0
    reach: float = 0.0
    f_pos: int = ALPHA
    f_neg: int = ALPHA

    @classmethod
    def bind(cls, spec: AdversarySpec, device: int, table: ScoreTable,
             partition: IntervalPartition, C: float) -> "_StrongPlan":
        p_of = np.array([1.0, 0.0, table.coins.prob(device, ALPHA)])
        if isinstance(spec, Honest):
            return cls(p_of, 2, table.flat)
        if isinstance(spec, Constant):
            return cls(p_of, spec.letter, table.flat)
        if isinstance(spec, Stall):
            return cls(p_of, table.stall_letter(device), table.flat)
        # push starts on, and finishes with, the letter that advances the
        # clock fastest
        idx = partition.outcomes.index(spec.target)
        aim_z = min(_AIM_CLAMP, max(-_AIM_CLAMP, partition.aim(idx)))
        rush = table.rush_letter(device)
        window = max(1, round(C / table.honest_second_moment() / 32.0))
        reach = max(table.max_abs, math.sqrt(window * table.second_moment_given(device, rush)))
        f_pos, f_neg = _far_letters(table, device)
        return cls(p_of, rush, table.flat, window, aim_z * math.sqrt(C), reach, f_pos, f_neg)

    def steer(self, st: np.ndarray, counts: np.ndarray, state: np.ndarray,
              finished: np.ndarray, cap: int) -> np.ndarray:
        """Review the runs due after ``st`` stages, then return how many
        stages each run may hold its state, at most ``cap``.

        A push run plays the letter most likely to step toward the aim
        while its sum is far from it, then races the clock for good so
        the sum cannot diffuse back out of the target cell.  ``counts``
        are the pair counts, pair-first; ``state`` and ``finished`` are
        updated in place.
        """
        if not self.review:
            return np.full(st.size, cap)
        due = ~finished & (st % self.review == 0)
        if np.any(due):
            d = self.aim_sum - _dot(counts[:, due], self.w)
            now = np.abs(d) <= self.reach
            finished[due] = now
            state[due] = np.where(now, self.start, np.where(d > 0, self.f_pos, self.f_neg))
        # finished runs keep one letter forever and may jump to the budget
        return np.where(finished, cap, np.minimum(self.review - st % self.review, cap))


def _far_letters(table: ScoreTable, device: int) -> tuple[int, int]:
    """Letters maximizing P(step > 0) resp. P(step < 0) for ``device``."""
    other = 2 if device == 1 else 1
    marg = np.array([table.coins.prob(other, ALPHA), table.coins.prob(other, BETA)])
    pos = np.zeros(2)
    for own in (ALPHA, BETA):
        for theirs in (ALPHA, BETA):
            w = table.values[own, theirs] if device == 1 else table.values[theirs, own]
            if w > 0:
                pos[own] += marg[theirs]
    f_pos = ALPHA if pos[ALPHA] >= pos[BETA] else BETA
    f_neg = ALPHA if 1.0 - pos[ALPHA] >= 1.0 - pos[BETA] else BETA
    return f_pos, f_neg


@dataclass(frozen=True)
class StrongRunResult:
    outcome: str
    outcome_index: int
    stages: int
    z: float
    sum_y: float
    sum_y2: float
    transcript: Transcript


def run_strong(
    coins: BinaryCoinPair,
    target: ProbabilityVector,
    C: float,
    *,
    adversary: AdversarySpec | None = None,
    adversary_device: int = 1,
    seed: int = 0,
    context: tuple = (),
) -> StrongRunResult:
    """Play one bounded lottery run stage by stage.

    Each stage draws one uniform per device from the streams that
    :func:`simulate_strong` reads, and the adversary's plan is reviewed
    on one-element arrays, so ``m_cap=1`` batches replay these runs.
    The per-stage path exists for transcripts and for differential
    tests against the block engine; use :func:`simulate_strong` for
    anything statistical.
    """
    if C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    spec = checked_spec(adversary, adversary_device)
    table = ScoreTable.from_coins(coins)
    partition = IntervalPartition(target)
    plan = _StrongPlan.bind(spec, adversary_device, table, partition, C)
    rng1, rng2, _ = device_streams(seed, *context)
    p = [coins.prob(1, ALPHA), coins.prob(2, ALPHA)]
    state, finished = np.full(1, plan.start), np.zeros(1, dtype=bool)
    w = tuple(float(v) for v in table.flat)
    w2 = tuple(v * v for v in w)
    counts = [0, 0, 0, 0]   # pair order
    letters: list[tuple[int, int]] = []
    # Two extra stages of slack: a run advancing at exactly the minimum
    # increment lands on the cap, and rounding in the clock can shift
    # the crossing by a stage.
    cap = table.stage_cap(C) + 2
    stage = 0
    while _dot(counts, w2) < C:
        if plan.review:     # only the push rule ever changes state
            plan.steer(np.full(1, stage), np.array(counts).reshape(4, 1), state, finished, 1)
        p[adversary_device - 1] = plan.p_of[state[0]]
        a1 = ALPHA if rng1.random() < p[0] else BETA
        a2 = ALPHA if rng2.random() < p[1] else BETA
        counts[2 * a1 + a2] += 1
        letters.append((a1, a2))
        stage += 1
        if stage > cap:
            raise AssertionError("variance clock failed to reach C within the hard cap")
    sum_y = _dot(counts, w)
    z = sum_y / math.sqrt(C)
    idx = partition.index_of(z)
    label = partition.outcomes.labels[idx]
    return StrongRunResult(
        outcome=label,
        outcome_index=idx,
        stages=stage,
        z=z,
        sum_y=sum_y,
        sum_y2=_dot(counts, w2),
        transcript=Transcript(stages=letters, terminal=label),
    )


@dataclass(frozen=True)
class StrongBatch:
    """Vector result of many bounded lottery runs."""

    outcomes: OutcomeSet
    C: float
    outcome_idx: np.ndarray  # int64, decoded cell per run
    stages: np.ndarray       # int64, stopping stage per run
    z: np.ndarray            # float64, normalized final sum
    sum_y: np.ndarray        # float64

    @property
    def runs(self) -> int:
        return int(self.outcome_idx.size)

    def empirical(self) -> EmpiricalDistribution:
        return EmpiricalDistribution.from_indices(self.outcomes, self.outcome_idx)


def _mhg_split(gen: np.random.Generator, counts: np.ndarray, m_lo: np.ndarray) -> np.ndarray:
    """Multivariate hypergeometric prefix split, vectorized over runs.

    Given per-run pair counts over a block (shape (4, k)) this samples
    how many of each pair land in the first ``m_lo`` stages, which is
    exact because i.i.d. letters are exchangeable given their counts.
    """
    lo = np.zeros_like(counts)
    remaining = m_lo.copy()
    pool = counts.sum(axis=0)
    for j in range(3):
        good = counts[j]
        need = remaining > 0
        # masked lanes get legal dummy parameters, result discarded
        x = gen.hypergeometric(
            np.where(need, good, 1), np.where(need, pool - good, 0), np.where(need, remaining, 1)
        )
        lo[j] = np.where(need, x, 0)
        remaining -= lo[j]
        pool -= good
    lo[3] = remaining
    return lo


def _refine_crossings(
    harness: np.random.Generator, w2: np.ndarray, C: float,
    base: np.ndarray, blk: np.ndarray, m: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Bisect crossing blocks down to the exact stopping stage.

    ``base`` holds each run's pair counts before its block and ``blk``
    the block's counts over ``m`` stages, which take the clock to ``C``.
    Squared increments are positive, so the clock alone names the half
    holding the stop.  Returns the counts at the stop and the stages
    played inside the block; the arguments are overwritten.
    """
    steps = np.zeros(m.size, dtype=np.int64)
    live = np.nonzero(m > 1)[0]
    while live.size:
        half = m[live] >> 1
        lo = _mhg_split(harness, blk[:, live], half)
        in_lo = _dot(base[:, live] + lo, w2) >= C
        a, b = live[in_lo], live[~in_lo]
        blk[:, a], m[a] = lo[:, in_lo], half[in_lo]
        base[:, b] += lo[:, ~in_lo]
        blk[:, b] -= lo[:, ~in_lo]
        steps[b] += half[~in_lo]
        m[b] -= half[~in_lo]
        live = live[m[live] > 1]
    # each block is down to its one crossing stage
    return base + blk, steps + 1


def _block_jumps(
    dev1: np.random.Generator, dev2: np.random.Generator, harness: np.random.Generator,
    p: np.ndarray, w2: np.ndarray, C: float, base: np.ndarray, m: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jump ``m`` stages of each run, bisecting the rare block that crosses.

    The block's pair counts come from binomial chains with alpha
    probabilities ``p[0]`` and ``p[1]``.  Returns the counts, the stages
    played and whether each run stopped; ``m`` is overwritten.
    """
    k1 = dev1.binomial(m, p[0])
    kaa, kba = dev2.binomial(k1, p[1]), dev2.binomial(m - k1, p[1])
    blk = np.stack([kaa, k1 - kaa, kba, m - k1 - kba])
    counts = base + blk
    crossed = _dot(counts, w2) >= C
    if np.any(crossed):
        counts[:, crossed], m[crossed] = _refine_crossings(
            harness, w2, C, base[:, crossed], blk[:, crossed], m[crossed]
        )
    return counts, m, crossed


def _tail_windows(
    dev1: np.random.Generator, dev2: np.random.Generator, p: np.ndarray,
    w2: np.ndarray, C: float, base: np.ndarray, L: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Play up to ``L`` stages of each run one stage at a time.

    Each stage draws one uniform per device (alpha below ``p[0]`` resp.
    ``p[1]``) and the clock is checked after every stage.  Rows go
    ``_TAIL_ROWS`` at a time to bound memory.  Returns the counts, the
    stages played and whether each run stopped.
    """
    k = base.shape[1]
    counts, steps, stopped = np.empty_like(base), np.empty(k, dtype=np.int64), np.empty(k, dtype=bool)
    for lo in range(0, k, _TAIL_ROWS):
        sl = slice(lo, lo + _TAIL_ROWS)
        n, width = base[:, sl].shape[1], int(L[sl].max())
        pair = 2 * (dev1.random((n, width)) >= p[0, sl, None]) + (dev2.random((n, width)) >= p[1, sl, None])
        tot = base[:, sl, None] + np.cumsum(pair == _PAIR_IDS, axis=2)
        hit = (_dot(tot, w2) >= C) & (np.arange(width) < L[sl, None])
        stopped[sl] = hit.any(axis=1)
        last = np.where(stopped[sl], hit.argmax(axis=1), L[sl] - 1)
        counts[:, sl], steps[sl] = tot[:, np.arange(n), last], last + 1
    return counts, steps, stopped


def _jump_sizes(rem: np.ndarray, mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Largest m with ``m*mu + K*sd*sqrt(m) < rem``: strictly, so that a
    clock with a fixed advance never lands on ``C`` at a block's end."""
    ks = _JUMP_SIGMAS * sd
    x = 2.0 * rem / (ks + np.sqrt(ks * ks + 4.0 * mu * rem))
    return np.ceil(np.minimum(x * x, M_MAX)).astype(np.int64) - 1


def simulate_strong(
    coins: BinaryCoinPair,
    target: ProbabilityVector,
    C: float,
    runs: int,
    *,
    adversary: AdversarySpec | None = None,
    adversary_device: int = 1,
    seed: int = 0,
    context: tuple = (),
    m_cap: int | None = None,
) -> StrongBatch:
    """Run many bounded lotteries at once, exactly, in block jumps.

    Every supported adversary holds its letter law between the push
    rule's review stages, so a block's pair counts are binomial.  Each
    run jumps the largest ``m`` with ``m*mu + K*sigma*sqrt(m)`` inside
    its remaining budget, ``mu`` and ``sigma`` being the mean and
    deviation of one stage's clock advance under that run's letter
    laws, so blocks rarely cross ``C``.  Shorter jumps than
    ``_TAIL_MIN`` become windows of per-stage draws, and the rare
    crossing block is bisected to its exact stop.  ``m_cap=1`` forces
    stage-at-a-time sampling for differential tests.
    """
    if C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    if runs < 0:
        raise ValueError(f"runs must be nonnegative, got {runs}")
    spec = checked_spec(adversary, adversary_device)
    table = ScoreTable.from_coins(coins)
    partition = IntervalPartition(target)
    plan = _StrongPlan.bind(spec, adversary_device, table, partition, C)

    dev1, dev2, harness = device_streams(seed, *context)
    w = table.flat.copy()
    w2 = w * w
    cap = int(m_cap) if m_cap is not None else M_MAX
    if cap < 1:
        raise ValueError(f"m_cap must be at least 1, got {cap}")
    cap = min(cap, M_MAX)
    honest = coins.prob(3 - adversary_device, ALPHA)

    # per adversary state, the mean and deviation of one stage's clock advance
    p_of = plan.p_of
    pair = _pair_probs(p_of, honest) if adversary_device == 1 else _pair_probs(honest, p_of)
    mu_of = pair @ w2
    sd_of = np.sqrt(np.maximum(pair @ (w2 * w2) - mu_of * mu_of, 0.0))

    # results fill in as runs stop; the runs still playing are compacted
    counts, stages = np.empty((4, runs), dtype=np.int64), np.empty(runs, dtype=np.int64)
    ridx, cnt, st = np.arange(runs), np.zeros((4, runs), dtype=np.int64), np.zeros(runs, dtype=np.int64)
    state, finished = np.full(runs, plan.start), np.zeros(runs, dtype=bool)

    while ridx.size:
        # blocks must not cross a review stage of the adversary's plan
        limit = plan.steer(st, cnt, state, finished, cap)
        p = np.full((2, ridx.size), honest)
        p[adversary_device - 1] = p_of[state]
        m = np.minimum(_jump_sizes(C - _dot(cnt, w2), mu_of[state], sd_of[state]), limit)
        done = np.zeros(ridx.size, dtype=bool)

        tail = m < _TAIL_MIN
        if np.any(tail):
            t = np.nonzero(tail)[0]
            cnt[:, t], steps, done[t] = _tail_windows(
                dev1, dev2, p[:, t], w2, C, cnt[:, t], np.minimum(_TAIL, limit[t])
            )
            st[t] += steps
        if not np.all(tail):
            b = np.nonzero(~tail)[0]
            cnt[:, b], steps, done[b] = _block_jumps(
                dev1, dev2, harness, p[:, b], w2, C, cnt[:, b], m[b]
            )
            st[b] += steps

        if np.any(done):
            g, keep = ridx[done], ~done
            counts[:, g], stages[g] = cnt[:, done], st[done]
            ridx, cnt, st = ridx[keep], cnt[:, keep], st[keep]
            state, finished = state[keep], finished[keep]

    # same float cushion as the sequential runner
    if runs and int(stages.max(initial=0)) > table.stage_cap(C) + 2:
        raise AssertionError("variance clock failed to reach C within the hard cap")

    sum_y = _dot(counts, w)
    z = sum_y / math.sqrt(C)
    return StrongBatch(outcomes=partition.outcomes, C=C, outcome_idx=partition.indices_of(z),
                       stages=stages, z=z, sum_y=sum_y)


@dataclass(frozen=True)
class CalibrationProbe:
    C: float
    adversary: str
    device: int
    linf: float
    threshold: float
    passed: bool
    runs: int


@dataclass(frozen=True)
class CalibrationResult:
    epsilon: float
    C0: float
    C: float | None
    accepted: bool
    runs_per_probe: int
    probes: list[CalibrationProbe] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "C0": self.C0,
            "C": self.C,
            "accepted": self.accepted,
            "runs_per_probe": self.runs_per_probe,
            "probes": [vars(p) for p in self.probes],
        }


def calibrate_C(
    coins: BinaryCoinPair,
    target: ProbabilityVector,
    epsilon: float,
    *,
    seed: int = 0,
    runs_per_probe: int = 20_000,
    max_doublings: int = 12,
) -> CalibrationResult:
    """Find a clock budget that holds every suite attack within epsilon.

    Starts at C0 = 4 / epsilon^2 and doubles until every (adversary,
    device) probe keeps the empirical outcome distribution within
    epsilon/2 plus the sampling margin of the target, or the doubling
    budget runs out.  Passing the suite is evidence, not proof.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if runs_per_probe < 1:
        raise ValueError(f"runs_per_probe must be positive, got {runs_per_probe}")
    suite = [Honest()] + default_suite(target.outcomes.labels)
    C0 = 4.0 / epsilon**2
    threshold = epsilon / 2.0 + hoeffding_margin(
        runs_per_probe, target.outcomes.size, CALIBRATION_DELTA
    )
    probes: list[CalibrationProbe] = []
    for k in range(max_doublings + 1):
        C = C0 * 2.0**k
        all_ok = True
        for spec in suite:
            devices = (1,) if isinstance(spec, Honest) else (1, 2)
            for dev in devices:
                batch = simulate_strong(
                    coins, target, C, runs_per_probe,
                    adversary=spec, adversary_device=dev,
                    seed=seed, context=("calibrate", k, spec.name, dev),
                )
                linf = linf_distance(batch.empirical(), target)
                ok = bool(linf <= threshold)
                probes.append(CalibrationProbe(C, spec.name, dev, linf, threshold, ok, runs_per_probe))
                all_ok = all_ok and ok
        if all_ok:
            return CalibrationResult(epsilon, C0, C, True, runs_per_probe, probes)
    return CalibrationResult(epsilon, C0, None, False, runs_per_probe, probes)


"""Unbounded jointly controlled lottery with public fault detection.

The public state is a belief vector over the outcome set, started at
the target.  Each stage a successor map is built from the current
belief: the same zero-mean score table as the bounded lottery decides
how much mass moves between the currently largest coordinate and the
smallest positive one, with the step size chosen as the largest value
that keeps all four successors inside the simplex.  Exactly one pair
of letters, the binding pair, drives a coordinate to zero; once only
one coordinate is left the lottery is decided.

One honest device keeps the belief a martingale, so the decided
outcome has exactly the target distribution.  The price of dropping
the bounded clock is that a dishonest device can stall forever, but
only by avoiding its own binding letter, a behavior any observer can
read off the public transcript: that is what :func:`detect_fault`
does.

:func:`run_weak` plays one run stage by stage with a transcript and
:func:`simulate_weak` advances many runs at once, jumping the frozen
phase of stalled runs by exact binomial blocks.  Both step beliefs by
one successor rule, :func:`_successor_arrays` (over one row or over
all active runs), read each adversary spec's letter rule from its
:class:`_WeakPolicy`, and blame by one checked verdict rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adversaries import AdversarySpec, Constant, Honest, Push, Stall, checked_spec
from .core import (
    ALPHA,
    BETA,
    BinaryCoinPair,
    OutcomeSet,
    ProbabilityVector,
    Transcript,
    device_streams,
)
from .stats import EmpiricalDistribution
from .strong import ScoreTable

# A successor whose coordinate dips below -_NEG_TOL is a logic error;
# anything in [-_NEG_TOL, 0) is float noise and gets clamped to zero.
_NEG_TOL = 1e-12
# smallest normal float: a positive coordinate below it has hit the floor
_TINY = float(np.finfo(np.float64).tiny)
# frozen runs whose safe jump is shorter than this keep per-stage play
_JUMP_MIN = 16


def default_max_stages(coins: BinaryCoinPair, target: ProbabilityVector) -> int:
    """Stage budget that makes honest timeouts practically impossible.

    Every stage the binding pair is hit with probability at least c1,
    and each hit zeroes one coordinate, so honest play terminates in
    around |J| / c1 stages; the log(100) factor buys slack.
    """
    return math.ceil(target.outcomes.size * math.log(100.0) / coins.c1)


class _Successors(NamedTuple):
    """One stage's successor rule for a batch of non-Dirac belief rows.

    Every letter pair moves mass between lam_plus and lam_minus and
    leaves the other coordinates alone, so the four successors are kept
    as those two moved coordinates per pair, ``new_p`` and ``new_m``
    with shape (n, 4) in pair order (aa, ab, ba, bb), clamped but not
    yet normalized.  :meth:`rows` builds only the drawn successors.
    """

    lam: np.ndarray         # (n, J)
    s: np.ndarray
    j_plus: np.ndarray
    j_minus: np.ndarray
    binding: np.ndarray
    new_p: np.ndarray
    new_m: np.ndarray

    def take(self, keep: np.ndarray) -> "_Successors":
        return _Successors(*(a[keep] for a in self))

    def rows(self, pair: np.ndarray) -> np.ndarray:
        """Each run's normalized successor for its letter pair ``pair``."""
        r = np.arange(pair.size)
        out = self.lam.copy()
        out[r, self.j_plus] = self.new_p[r, pair]
        out[r, self.j_minus] = self.new_m[r, pair]
        out /= out.sum(axis=1)[:, None]
        return out

    def column(self, t: int) -> np.ndarray:
        """Coordinate ``t`` of all four normalized successors, (n, 4).

        Normalizing needs each successor's full row sum, so this builds
        the four rows; only the push rule reads it.
        """
        n = self.lam.shape[0]
        d = np.repeat(self.lam[:, None, :], 4, axis=1)
        for j, new in ((self.j_plus, self.new_p), (self.j_minus, self.new_m)):
            np.put_along_axis(d, np.broadcast_to(j[:, None, None], (n, 4, 1)),
                              new[:, :, None], axis=2)
        return d[:, :, t] / d.sum(axis=2)


def _successor_arrays(lam: np.ndarray, w: np.ndarray) -> _Successors:
    """Successor rule for a batch of non-Dirac belief rows.

    ``lam`` has shape (n, J) with at least two positive coordinates per
    row.  Only the binding pair's hit may zero a coordinate: any other
    positive coordinate that falls to the subnormal range is a float
    floor, not a decision, and raises FloatingPointError.
    """
    n, J = lam.shape
    rows = np.arange(n)
    j_plus = np.argmax(lam, axis=1)
    masked = np.where(lam > 0.0, lam, np.inf)
    masked[rows, j_plus] = np.inf
    j_minus = np.argmin(masked, axis=1)
    lam_p = lam[rows, j_plus]
    lam_m = lam[rows, j_minus]
    # largest step keeping every successor in the simplex; per pair
    # columns, since numpy reduces short rows slowly
    wk = w.tolist()
    s_k = np.stack([(lam_m if x > 0.0 else lam_p) / abs(x) for x in wk], axis=1)
    binding = np.argmin(s_k, axis=1)
    s = s_k[rows, binding]

    new_p = np.stack([lam_p + s * x for x in wk], axis=1)
    new_m = np.stack([lam_m - s * x for x in wk], axis=1)
    # the constrained coordinate of every pair that attains s* is an
    # exact zero, not a rounding residue
    hit = s_k == s[:, None]
    zero_p = hit & (w <= 0.0)
    zero_m = hit & (w > 0.0)
    new_p[zero_p] = 0.0
    new_m[zero_m] = 0.0

    if np.any(new_p < -_NEG_TOL) or np.any(new_m < -_NEG_TOL) or np.any(lam < -_NEG_TOL):
        raise AssertionError("successor left the simplex")
    np.maximum(new_p, 0.0, out=new_p)
    np.maximum(new_m, 0.0, out=new_m)
    if np.any((new_p < _TINY) & ~zero_p) or np.any((new_m < _TINY) & ~zero_m):
        raise FloatingPointError(
            "a belief coordinate fell to the float floor (subnormal or zero) "
            "without its binding pair being hit; the run is too long for "
            "per-stage float beliefs"
        )
    sums = (lam @ np.ones(J) - lam_p - lam_m)[:, None] + new_p + new_m
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise AssertionError("successor mass drifted away from 1")
    return _Successors(lam, s, j_plus, j_minus, binding, new_p, new_m)


def _shrink_letter(binding, device: int):
    """A device's half of binding pair indices ``2*a1 + a2`` (int or array)."""
    if device == 1:
        return binding >> 1
    if device == 2:
        return binding & 1
    raise ValueError(f"device must be 1 or 2, got {device}")


@dataclass(frozen=True)
class _WeakPolicy:
    """The one definition of an adversary spec's letter rule, bound to a
    device of the detecting lottery."""

    spec: AdversarySpec
    device: int
    honest: float       # the device's own alpha probability
    target: int = -1    # push: the target label's coordinate

    @classmethod
    def bind(cls, spec: AdversarySpec, device: int, coins: BinaryCoinPair,
             outcomes: OutcomeSet) -> "_WeakPolicy":
        if device not in (1, 2):
            raise ValueError(f"device must be 1 or 2, got {device}")
        target = outcomes.index(spec.target) if isinstance(spec, Push) else -1
        return cls(spec, device, coins.prob(device, ALPHA), target)

    def p_alpha(self, binding: np.ndarray, column=None) -> np.ndarray:
        """Alpha probability per run, given that stage's binding pairs
        (runs,) and ``column(t)``, coordinate t of the four normalized
        successors (runs, 4), which only the push rule reads."""
        spec = self.spec
        if isinstance(spec, Honest):
            return np.full(binding.size, self.honest)
        if isinstance(spec, Constant):
            return np.full(binding.size, 1.0 if spec.letter == ALPHA else 0.0)
        if isinstance(spec, Stall):
            # refuse the binding letter: the only way to delay forever
            return np.where(_shrink_letter(binding, self.device) == BETA, 1.0, 0.0)
        # push: own letter whose best-case successor favors the target;
        # the target's successor masses indexed [run, a1, a2]
        best = column(self.target).reshape(-1, 2, 2).max(axis=3 - self.device)
        return np.where(best[:, ALPHA] >= best[:, BETA], 1.0, 0.0)

    @property
    def may_freeze(self) -> bool:
        """Whether the letter is fixed while the binding pair stays put."""
        return isinstance(self.spec, (Constant, Stall))

    def frozen_letter(self, binding: np.ndarray) -> np.ndarray:
        """The letter each run plays for as long as its binding pair stays
        put, or -1 where it is not fixed or is the device's own binding
        letter.  Only runs with such a letter may jump a frozen phase:
        ``Stall``, and ``Constant`` while it avoids the binding letter."""
        if not self.may_freeze:
            return np.full(binding.size, -1)
        letter = np.where(self.p_alpha(binding) == 1.0, ALPHA, BETA)
        return np.where(letter == _shrink_letter(binding, self.device), -1, letter)


def _policies(spec: AdversarySpec, adversary_device: int, coins: BinaryCoinPair,
              outcomes: OutcomeSet) -> list[_WeakPolicy]:
    """Both devices' policies: ``spec`` on ``adversary_device``, honest
    play on the other."""
    return [_WeakPolicy.bind(spec if dev == adversary_device else Honest(), dev, coins, outcomes)
            for dev in (1, 2)]


@dataclass(frozen=True)
class WeakRunResult:
    outcome: str | None     # None means the stage budget ran out
    outcome_index: int      # -1 on timeout
    stages: int
    final: np.ndarray       # belief when play stopped
    transcript: Transcript | None = None
    verdict: "DetectionVerdict | None" = None


def run_weak(
    coins: BinaryCoinPair,
    target: ProbabilityVector,
    *,
    adversary: AdversarySpec | None = None,
    adversary_device: int = 1,
    seed: int = 0,
    max_stages: int | None = None,
    record: bool = True,
    context: tuple = (),
    window: int = 1000,
    faulty_below: float = 0.1,
    honest_above: float = 0.2,
) -> WeakRunResult:
    """Play one detecting lottery run stage by stage.

    Each stage applies the batch engine's successor rule and letter
    policies to a one-row batch and draws one uniform per device, so a
    ``_per_stage=True`` batch replays these runs.  Transcript stage
    records are (a1, a2, shrink1, shrink2) so that a third party can
    audit who kept avoiding their binding letter; the returned verdict
    is detect_fault on that transcript with the given window and
    thresholds.

    Beliefs are floats.  Under a stall at coins 0.3/0.7, lam_minus
    reaches the subnormal floor after about 2e4 stages; the successor
    rule then raises FloatingPointError rather than read the underflow
    as a decision.  :func:`simulate_weak` carries stalled runs past
    that floor in log form.
    """
    spec = checked_spec(adversary, adversary_device)
    table = ScoreTable.from_coins(coins)
    if max_stages is None:
        max_stages = default_max_stages(coins, target)
    if max_stages < 0:
        raise ValueError(f"max_stages must be nonnegative, got {max_stages}")
    pol1, pol2 = _policies(spec, adversary_device, coins, target.outcomes)
    rng1, rng2, _ = device_streams(seed, *context)
    w = table.flat.copy()
    lam = target.mass.copy()
    records: list[tuple[int, int, int, int]] = []
    stage = 0
    while stage < max_stages and np.count_nonzero(lam > 0.0) > 1:
        succ = _successor_arrays(lam[None], w)
        a1 = ALPHA if rng1.random() < pol1.p_alpha(succ.binding, succ.column)[0] else BETA
        a2 = ALPHA if rng2.random() < pol2.p_alpha(succ.binding, succ.column)[0] else BETA
        if record:
            b = int(succ.binding[0])
            records.append((a1, a2, _shrink_letter(b, 1), _shrink_letter(b, 2)))
        lam = succ.rows(np.array([2 * a1 + a2]))[0]
        stage += 1
    if np.count_nonzero(lam > 0.0) <= 1:
        idx = int(np.argmax(lam))
        outcome = target.outcomes.labels[idx]
    else:
        idx, outcome = -1, None
    transcript = Transcript(stages=records, terminal=outcome) if record else None
    verdict = None
    if record:
        verdict = detect_fault(
            transcript, coins,
            window=window, faulty_below=faulty_below, honest_above=honest_above,
        )
    return WeakRunResult(outcome, idx, stage, lam, transcript, verdict)


@dataclass(frozen=True)
class DetectionVerdict:
    verdict: str            # none | inconclusive | device1_faulty | device2_faulty
    match_rate1: float
    match_rate2: float
    window_stages: int


def _verdict_rule(window: int, faulty_below: float, honest_above: float):
    """Checked decision rule shared by single-run and batch detection:
    ``(match1, match2, window_stages, terminated) -> verdict``."""
    if not 0.0 <= faulty_below < honest_above < 1.0:
        raise ValueError("need 0 <= faulty_below < honest_above < 1")
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")

    def verdict(match1: int, match2: int, window_stages: int, terminated: bool) -> str:
        if terminated:
            return "none"
        if window_stages < window:
            return "inconclusive"
        r1 = match1 / window_stages
        r2 = match2 / window_stages
        if r1 < faulty_below and r2 > honest_above:
            return "device1_faulty"
        if r2 < faulty_below and r1 > honest_above:
            return "device2_faulty"
        return "inconclusive"

    return verdict


def detect_fault(
    transcript: Transcript,
    coins: BinaryCoinPair,
    *,
    window: int = 1000,
    faulty_below: float = 0.1,
    honest_above: float = 0.2,
) -> DetectionVerdict:
    """Blame a stalling device from the public transcript alone.

    A device's match rate is how often it played its own binding
    letter over the trailing ``window`` stages.  An honest device's
    rate concentrates at or above c0 and a stalling one sits at zero,
    so thresholds with faulty_below < honest_above < c0 separate the
    two; honest_above at or above c0 only costs sensitivity, never
    soundness, since blame still needs the partner rate above it.  The
    verdict is one-sided by design; "inconclusive" is the honest
    answer for anything short of a clear single culprit.
    """
    verdict_of = _verdict_rule(window, faulty_below, honest_above)
    if not isinstance(coins, BinaryCoinPair):
        raise TypeError("coins must be a BinaryCoinPair; thresholds are read against its c0")
    stages = transcript.stages
    tail = stages[-window:]
    m1 = sum(1 for a1, _, s1, _ in tail if a1 == s1)
    m2 = sum(1 for _, a2, _, s2 in tail if a2 == s2)
    n = len(tail)
    verdict = verdict_of(m1, m2, n, transcript.terminal is not None)
    rate1 = m1 / n if n else math.nan
    rate2 = m2 / n if n else math.nan
    return DetectionVerdict(verdict, rate1, rate2, n)


@dataclass(frozen=True)
class WeakBatch:
    """Vector result of many detecting lottery runs."""

    outcomes: OutcomeSet
    outcome_idx: np.ndarray     # int64, -1 on timeout
    stages: np.ndarray          # int64
    match1: np.ndarray          # int64, binding-letter matches in the window
    match2: np.ndarray
    window_stages: np.ndarray   # int64, stages each run spent inside the window
    window: int
    max_stages: int

    @property
    def runs(self) -> int:
        return int(self.outcome_idx.size)

    @property
    def timeout_rate(self) -> float:
        if self.runs == 0:
            return 0.0
        return float(np.mean(self.outcome_idx < 0))

    def empirical(self) -> EmpiricalDistribution:
        """Distribution over decided outcomes; timeouts are excluded."""
        return EmpiricalDistribution.from_indices(self.outcomes, self.outcome_idx)

    def verdicts(
        self,
        *,
        faulty_below: float = 0.1,
        honest_above: float = 0.2,
    ) -> list[str]:
        verdict_of = _verdict_rule(self.window, faulty_below, honest_above)
        return [
            verdict_of(m1, m2, n, k >= 0)
            for m1, m2, n, k in zip(self.match1.tolist(), self.match2.tolist(),
                                    self.window_stages.tolist(), self.outcome_idx.tolist())
        ]


def _jump_plan(succ: _Successors, letter: np.ndarray, device: int, w: np.ndarray,
               log_m: np.ndarray):
    """Safe block length of each run whose structure can freeze.

    While ``j_plus``, ``j_minus`` and the binding pair stay put and the
    device at ``device`` plays its fixed ``letter`` (-1: none, see
    :meth:`_WeakPolicy.frozen_letter`), each stage multiplies lam_minus
    by f = 1 - w_k/w_bind, where the other device's letter picks the
    pair k, and lam_plus + lam_minus = S is conserved.  The structure
    holds while lam_minus stays strictly below t*, the least of: the
    smallest other positive coordinate, S minus the largest other one,
    S/2, and S·w_bind/(w_bind + |w_min|).

    ``log_m`` is log lam_minus for runs already frozen (whose rows keep
    the frozen structure) and NaN for the rest, whose lam_minus is read
    from ``succ``.  Returns ``(m, log_f, log_lam_m)``: m is the largest
    block whose all-up path stays strictly below t* (inf where no path
    grows; 0 where the run cannot freeze or has no room for a
    ``_JUMP_MIN`` block), log_f (runs, 2) is log f for the other
    device's alpha and beta, and log_lam_m is log lam_minus where m > 0.
    """
    # log f per (binding pair, own letter, other letter)
    a, o = np.meshgrid([ALPHA, BETA], [ALPHA, BETA], indexing="ij")
    pair = 2 * a + o if device == 1 else 2 * o + a
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.log(1.0 - w[pair][None] / w[:, None, None])
    grow = np.maximum(table.max(axis=2), 0.0)
    ok = (w > 0.0)[:, None] & (table > -np.inf).all(axis=2)
    # t* <= S/2, so a block of _JUMP_MIN stages needs lam_minus below
    # S/2 / reach; runs short of that skip the t* computation
    reach = np.exp(_JUMP_MIN * grow)

    own = np.maximum(letter, 0)
    b = succ.binding
    r = np.arange(b.size)
    lam = succ.lam
    frozen = ~np.isnan(log_m)
    lam_m = lam[r, succ.j_minus]
    S = lam[r, succ.j_plus] + lam_m
    with np.errstate(over="ignore", under="ignore"):
        lin = np.where(frozen, np.exp(log_m), lam_m)
    c = np.nonzero((letter >= 0) & ok[b, own] & (lin * reach[b, own] < S / 2.0))[0]
    m = np.zeros(b.size)
    log_lam_m = np.full(b.size, np.nan)
    if c.size:
        rest = lam[c]
        rest[np.arange(c.size), succ.j_plus[c]] = 0.0
        rest[np.arange(c.size), succ.j_minus[c]] = 0.0
        Sc, wb = S[c], w[b[c]]
        t_star = np.minimum.reduce([
            np.where(rest > 0.0, rest, np.inf).min(axis=1),
            Sc - rest.max(axis=1),
            Sc / 2.0,
            Sc * wb / (wb + abs(float(w.min()))),
        ])
        log_lam_m[c] = np.where(frozen[c], log_m[c], np.log(lam_m[c]))
        room = np.log(t_star) - log_lam_m[c]
        g = grow[b[c], own[c]]
        with np.errstate(divide="ignore"):
            m[c] = np.where(room <= 0.0, 0.0,
                            np.where(g > 0.0, np.floor(room / g) - 1.0, np.inf))
    return m, table[b, own], log_lam_m


def simulate_weak(
    coins: BinaryCoinPair,
    target: ProbabilityVector,
    runs: int,
    *,
    adversary: AdversarySpec | None = None,
    adversary_device: int = 1,
    seed: int = 0,
    context: tuple = (),
    max_stages: int | None = None,
    window: int = 1000,
    _per_stage: bool = False,
) -> WeakBatch:
    """Run many detecting lotteries, vectorized over runs.

    Each pass advances every active run, so runs do not move in
    lockstep.  Most runs take one stage through the shared successor
    rule.  A run whose adversary plays a fixed letter that avoids its
    binding letter (stall, or a constant that refuses it) and whose
    structure has frozen (see :func:`_jump_plan`) instead jumps a whole
    block: its lam_minus, kept as a log so the float floor never comes
    up, moves by one binomial draw of the honest letter count.  Blocks
    never straddle the window start, and runs whose safe block is under
    ``_JUMP_MIN`` stages keep per-stage play, so the law is exact.
    ``_per_stage=True`` (for tests) turns jumps off.

    Binding-letter matches are tallied over the trailing ``window``
    stages of the budget, which is what the batch fault verdicts are
    computed from.
    """
    if runs < 0:
        raise ValueError(f"runs must be nonnegative, got {runs}")
    spec = checked_spec(adversary, adversary_device)
    table = ScoreTable.from_coins(coins)
    if max_stages is None:
        max_stages = default_max_stages(coins, target)
    if max_stages < 0:
        raise ValueError(f"max_stages must be nonnegative, got {max_stages}")
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    pols = _policies(spec, adversary_device, coins, target.outcomes)
    pol1, pol2 = pols
    honest_dev = 3 - adversary_device
    adv_pol, honest_pol = pols[adversary_device - 1], pols[honest_dev - 1]
    jumps = adv_pol.may_freeze and not _per_stage

    streams = device_streams(seed, *context)
    dev1, dev2 = streams[:2]
    w = table.flat.copy()
    n = runs

    lam = np.tile(target.mass, (n, 1))
    # frozen runs: log lam_minus; their rows keep the frozen structure
    log_m = np.full(n, np.nan)
    active = np.ones(n, dtype=bool)
    outcome_idx = np.full(n, -1, dtype=np.int64)
    stages = np.zeros(n, dtype=np.int64)
    match1 = np.zeros(n, dtype=np.int64)
    match2 = np.zeros(n, dtype=np.int64)
    honest_match = match1 if honest_dev == 1 else match2
    window_stages = np.zeros(n, dtype=np.int64)
    window_start = max(0, max_stages - window)
    positive = np.ones(lam.shape[1], dtype=np.int64)  # counts positive coordinates

    while True:
        decided = active & ((lam > 0.0) @ positive <= 1)
        if np.any(decided):
            outcome_idx[decided] = np.argmax(lam[decided], axis=1)
            active &= ~decided
        active &= stages < max_stages
        if not np.any(active):
            break
        # one draw per device per pass for every run, regardless of who
        # is still active: without jumps, a pass is a stage, and runs
        # stay comparable across adversaries under a shared seed
        u1 = dev1.random(n)
        u2 = dev2.random(n)
        idx = np.nonzero(active)[0]
        succ = _successor_arrays(lam[idx], w)

        if jumps:
            m_safe, log_f, cur = _jump_plan(
                succ, adv_pol.frozen_letter(succ.binding), adversary_device, w, log_m[idx]
            )
            go = m_safe >= _JUMP_MIN
            thaw = ~np.isnan(log_m[idx]) & ~go
            if np.any(thaw):
                # back to per-stage play from the next pass on
                t, jp, jm = idx[thaw], succ.j_plus[thaw], succ.j_minus[thaw]
                total = lam[t, jp] + lam[t, jm]
                lam[t, jm] = np.exp(log_m[t])
                lam[t, jp] = total - lam[t, jm]
                log_m[t] = np.nan
            if np.any(go):
                j, st = idx[go], stages[idx[go]]
                cap = np.where(st < window_start, window_start - st, max_stages - st)
                m = np.minimum(m_safe[go], cap).astype(np.int64)
                k = streams[honest_dev - 1].binomial(m, honest_pol.honest)
                log_m[j] = cur[go] + k * log_f[go, 0] + (m - k) * log_f[go, 1]
                inw = st >= window_start
                hits = np.where(_shrink_letter(succ.binding[go], honest_dev) == ALPHA, k, m - k)
                honest_match[j] += np.where(inw, hits, 0)
                window_stages[j] += np.where(inw, m, 0)
                stages[j] += m
            keep = ~(go | thaw)
            if not keep.all():
                idx, succ = idx[keep], succ.take(keep)

        a1 = np.where(u1[idx] < pol1.p_alpha(succ.binding, succ.column), ALPHA, BETA)
        a2 = np.where(u2[idx] < pol2.p_alpha(succ.binding, succ.column), ALPHA, BETA)
        inw = stages[idx] >= window_start
        match1[idx] += inw & (a1 == _shrink_letter(succ.binding, 1))
        match2[idx] += inw & (a2 == _shrink_letter(succ.binding, 2))
        window_stages[idx] += inw
        lam[idx] = succ.rows(2 * a1 + a2)
        stages[idx] += 1

    return WeakBatch(
        outcomes=target.outcomes,
        outcome_idx=outcome_idx,
        stages=stages,
        match1=match1,
        match2=match2,
        window_stages=window_stages,
        window=window,
        max_stages=max_stages,
    )

"""Quitting games played without any trusted randomness device.

A quitting game gives every player some continue actions and one quit
action; the first quit freezes the game at that stage's payoff.  The
reference equilibria here designate, each block, at most one player
who then quits with a small probability.  The designation is a public
lottery, and instead of a trusted coordinator it is run through the
bounded two-device lottery: the letter streams are the binarized
continue actions of the first two players, so the randomness rides on
actions the players were going to play anyway.

A profile is certified empirically: estimate the payoff vector, then
try a finite family of deviations per player and bound the best gain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .adversaries import AdversarySpec, Constant, Stall
from .core import (
    BinaryCoinPair,
    BinaryPartition,
    OutcomeSet,
    ProbabilityVector,
    json_number,
    substream,
)
from .strong import CalibrationResult, calibrate_C, simulate_strong

QUIT = "quit"       # reserved quit-action label, distinct from continue actions
NOBODY = "0"        # designation label for blocks where nobody may quit
EPS_BLOCK_FLOOR = 0.02  # smallest per-block lottery accuracy target calibrated for


def _json_numbers(values, key: str) -> np.ndarray:
    """A config list of JSON numbers as a float array (see json_number)."""
    if not isinstance(values, list):
        raise ValueError(f"{key} must be a list of numbers, got {values!r}")
    return np.array([json_number(v, key) for v in values])


class QuittingGame:
    """Players, per-player continue actions, and a total payoff map.

    ``payoffs`` maps every full action profile (tuple of one action
    per player in player order, each a continue action or QUIT) to a
    payoff vector in [0,1]^I.
    """

    def __init__(
        self,
        players: tuple[str, ...] | list[str],
        continue_actions: dict[str, OutcomeSet],
        payoffs: dict[tuple[str, ...], np.ndarray],
    ):
        players = tuple(players)
        if not players:
            raise ValueError("need at least one player")
        if len(set(players)) != len(players):
            raise ValueError("player names must be distinct")
        if NOBODY in players:
            raise ValueError(f"player name {NOBODY!r} is reserved for the idle designation")
        if set(continue_actions) != set(players):
            raise ValueError("continue_actions must cover exactly the players")
        for p in players:
            acts = continue_actions[p]
            if not isinstance(acts, OutcomeSet):
                raise TypeError(f"continue actions of {p} must be an OutcomeSet")
            if QUIT in acts.labels:
                raise ValueError(f"{QUIT!r} is reserved and cannot be a continue action of {p}")
        self.players = players
        self.continue_actions = dict(continue_actions)
        self._spaces = {
            p: tuple(continue_actions[p].labels) + (QUIT,) for p in players
        }
        table: dict[tuple[str, ...], np.ndarray] = {}
        expected = 1
        for p in players:
            expected *= len(self._spaces[p])
        if len(payoffs) != expected:
            raise ValueError(
                f"payoff map must be total: expected {expected} profiles, got {len(payoffs)}"
            )
        for profile, u in payoffs.items():
            profile = tuple(profile)
            for p, a in zip(players, profile):
                if a not in self._spaces[p]:
                    raise ValueError(f"profile {profile} uses unknown action {a!r} for {p}")
            u = np.asarray(u, dtype=np.float64)
            if u.shape != (len(players),):
                raise ValueError(f"payoff vector for {profile} has wrong length")
            if np.any(u < 0.0) or np.any(u > 1.0):
                raise ValueError(f"payoffs must lie in [0,1], got {u} at {profile}")
            table[profile] = u
        if len(table) != expected:
            raise ValueError("duplicate profiles in payoff map")
        self.payoffs = table
        self._tensor: np.ndarray | None = None

    def action_space(self, player: str) -> tuple[str, ...]:
        """Continue actions in canonical order, then QUIT."""
        return self._spaces[player]

    def action_index(self, player: str, action: str) -> int:
        return self._spaces[player].index(action)

    def payoff(self, profile: dict[str, str] | tuple[str, ...]) -> np.ndarray:
        if isinstance(profile, dict):
            profile = tuple(profile[p] for p in self.players)
        return self.payoffs[tuple(profile)].copy()

    @property
    def payoff_tensor(self) -> np.ndarray:
        """Payoffs as an array indexed by per-player action indices."""
        if self._tensor is None:
            shape = tuple(len(self._spaces[p]) for p in self.players) + (len(self.players),)
            t = np.empty(shape)
            for profile, u in self.payoffs.items():
                idx = tuple(self.action_index(p, a) for p, a in zip(self.players, profile))
                t[idx] = u
            t.setflags(write=False)
            self._tensor = t
        return self._tensor

    def expected_payoff(self, behavior: dict[str, ProbabilityVector | str]) -> np.ndarray:
        """Exact E[u] when each player mixes (or fixes) independently.

        ``behavior[p]`` is either a ProbabilityVector over p's continue
        actions or a single fixed action label (QUIT allowed).
        """
        choices = []
        for p in self.players:
            b = behavior[p]
            if isinstance(b, str):
                if b not in self._spaces[p]:
                    raise ValueError(f"unknown action {b!r} for {p}")
                choices.append(((b, 1.0),))
            else:
                if b.outcomes.labels != self.continue_actions[p].labels:
                    raise ValueError(f"mixing of {p} must be over their continue actions")
                choices.append(tuple(zip(b.outcomes.labels, b.mass)))
        total = np.zeros(len(self.players))
        for combo in itertools.product(*choices):
            prob = 1.0
            for _, q in combo:
                prob *= q
            if prob == 0.0:
                continue
            total += prob * self.payoffs[tuple(a for a, _ in combo)]
        return total

    def continue_value(self, x: dict[str, ProbabilityVector]) -> np.ndarray:
        """Exact stage payoff when everyone mixes over continue actions."""
        return self.expected_payoff({p: x[p] for p in self.players})

    def quit_value(self, player: str, x: dict[str, ProbabilityVector]) -> np.ndarray:
        """Exact payoff when ``player`` quits alone against mixing x."""
        behavior: dict[str, ProbabilityVector | str] = {p: x[p] for p in self.players}
        behavior[player] = QUIT
        return self.expected_payoff(behavior)

    @classmethod
    def from_dict(cls, d: dict) -> "QuittingGame":
        unknown = set(d) - {"players", "continue_actions", "payoffs"}
        if unknown:
            raise ValueError(f"unknown game keys: {sorted(unknown)}")
        players = tuple(d["players"])
        actions = {p: OutcomeSet(d["continue_actions"][p]) for p in players}
        payoffs: dict[tuple[str, ...], np.ndarray] = {}
        for entry in d["payoffs"]:
            unknown = set(entry) - {"profile", "u"}
            if unknown:
                raise ValueError(f"unknown payoff entry keys: {sorted(unknown)}")
            profile = tuple(entry["profile"][p] for p in players)
            payoffs[profile] = _json_numbers(entry["u"], f"payoff u of {profile}")
        return cls(players, actions, payoffs)

    def to_dict(self) -> dict:
        return {
            "players": list(self.players),
            "continue_actions": {p: list(self.continue_actions[p].labels) for p in self.players},
            "payoffs": [
                {"profile": dict(zip(self.players, prof)), "u": [float(v) for v in u]}
                for prof, u in sorted(self.payoffs.items())
            ],
        }


class DesignationRule(Protocol):
    """Per-block distribution over who may quit (players plus NOBODY)."""

    def probs(self, t: int) -> ProbabilityVector: ...


@dataclass(frozen=True)
class StationaryDesignation:
    distribution: ProbabilityVector

    def probs(self, t: int) -> ProbabilityVector:
        return self.distribution


@dataclass(frozen=True)
class CyclicDesignation:
    """Deterministic rotation through a fixed order of labels."""

    outcomes: OutcomeSet
    order: tuple[str, ...]

    def __post_init__(self):
        if not self.order:
            raise ValueError("cyclic order must be nonempty")
        for label in self.order:
            if label not in self.outcomes:
                raise ValueError(f"cyclic order label {label!r} not in the designation set")

    def probs(self, t: int) -> ProbabilityVector:
        return ProbabilityVector.dirac(self.outcomes, self.order[t % len(self.order)])


EtaRule = float | Callable[[int, str], float]


def _eta_value(eta: EtaRule, t: int, player: str) -> float:
    v = float(eta) if not callable(eta) else float(eta(t, player))
    if not 0.0 <= v < 1.0:
        raise ValueError(f"quit probability must be in [0,1), got {v} at block {t}")
    return v


def _block_row(
    sunspot: SunspotProfile, labels: tuple[str, ...], t: int,
) -> tuple[ProbabilityVector, list[float]]:
    """Block t's designation law and one quit rate per label of
    ``labels`` (NOBODY's is 0).  Every walk of the designation chain
    reads its blocks here, so each block's outcome set and quit rates
    are checked the same way everywhere."""
    nu = sunspot.designation.probs(t)
    if nu.outcomes.labels != labels:
        raise ValueError(f"designation at block {t} switched outcome sets")
    return nu, [0.0 if p == NOBODY else _eta_value(sunspot.eta, t, p) for p in labels]


@dataclass(frozen=True)
class SunspotProfile:
    """Reference equilibrium data: mixing, designation, quit rate, target.

    ``x`` maps each player to a mixing over their continue actions;
    ``designation`` emits a per-block distribution over players plus
    NOBODY; ``eta`` is the designated player's quit probability, a
    constant or a (block, player) function; ``target_payoff`` is the
    reference payoff vector the profile is supposed to achieve.
    """

    x: dict[str, ProbabilityVector]
    designation: DesignationRule
    eta: EtaRule
    target_payoff: np.ndarray | None = None


def perturb_pure(x_i: ProbabilityVector, epsilon: float) -> ProbabilityVector:
    """Make a pure mixing usable as a lottery letter source.

    A pure action cannot carry randomness, so mass ``epsilon`` is
    moved to the cyclically next continue action; non-pure input is
    returned unchanged.  Needs at least two continue actions.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    if x_i.outcomes.size < 2:
        raise ValueError("cannot perturb a single-action mixing; need two continue actions")
    if not x_i.is_dirac:
        return x_i
    k = int(np.argmax(x_i.mass))
    mass = x_i.mass.copy()
    mass[k] -= epsilon
    mass[(k + 1) % x_i.outcomes.size] += epsilon
    return ProbabilityVector(x_i.outcomes, mass)


def horizon_T(
    sunspot: SunspotProfile,
    epsilon: float,
    *,
    method: str = "auto",
    seed: int = 0,
    samples: int = 4000,
    t_max: int = 200_000,
) -> int:
    """Number of blocks after which unfinished play is epsilon-rare.

    The criterion is that the survival product of (1 - eta^t) over
    designated blocks has probability below epsilon of still exceeding
    epsilon at T.  Constant eta with a structurally known designation
    rate rho uses the closed form ceil(ln eps / (rho ln(1-eta)));
    otherwise T is found by Monte Carlo over the designation chain
    with a 99% one-sided confidence margin.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    if method not in ("auto", "closed_form", "monte_carlo"):
        raise ValueError(f"unknown method {method!r}")
    eta = sunspot.eta
    constant = not callable(eta)
    if constant and float(eta) <= 0.0:
        raise ValueError("eta is 0: the profile never terminates, no finite horizon exists")

    if method in ("auto", "closed_form"):
        rho = _designation_rate(sunspot.designation)
        if constant and rho is not None:
            if rho <= 0.0:
                raise ValueError("designation never names a player; no finite horizon exists")
            return math.ceil(math.log(epsilon) / (rho * math.log(1.0 - float(eta))))
        if method == "closed_form":
            raise ValueError(
                "closed form needs constant eta and a stationary or cyclic designation rule"
            )

    rng = substream(seed, "horizon")
    margin = math.sqrt(math.log(1.0 / 0.01) / (2.0 * samples))
    if epsilon <= margin:
        raise ValueError(
            f"{samples} samples cannot certify epsilon={epsilon}: margin {margin:.4f} too wide"
        )
    log_eps = math.log(epsilon)
    labels = sunspot.designation.probs(0).outcomes.labels
    stop_at = np.zeros(samples, dtype=np.int64)
    live = np.arange(samples)
    acc = np.zeros(samples)         # log survival of each live path
    for t in range(t_max):
        nu, rates = _block_row(sunspot, labels, t)
        designee = np.searchsorted(np.cumsum(nu.mass), rng.random(live.size), side="right")
        acc += np.log1p(-np.asarray(rates))[np.minimum(designee, len(labels) - 1)]
        done = acc <= log_eps
        stop_at[live[done]] = t + 1
        live, acc = live[~done], acc[~done]
        if not live.size:
            break
    else:
        raise RuntimeError(
            f"survival product still above epsilon after {t_max} blocks; "
            "the profile may effectively never terminate"
        )
    allowed = math.ceil((epsilon - margin) * samples) - 1
    order = np.sort(stop_at)[::-1]
    return int(order[allowed])


def _designation_rate(rule: DesignationRule) -> float | None:
    """Average per-block probability that someone is designated, when
    the rule's structure makes that a known constant."""
    if isinstance(rule, StationaryDesignation):
        return 1.0 - rule.distribution.mass_of(NOBODY) if NOBODY in rule.distribution.outcomes else 1.0
    if isinstance(rule, CyclicDesignation):
        named = sum(1 for label in rule.order if label != NOBODY)
        return named / len(rule.order)
    return None


@dataclass(frozen=True)
class BlockProfile:
    """The deployable strategy profile: lottery blocks plus quit stages.

    Each block runs one bounded lottery over players plus NOBODY with
    the block's designation distribution as target; everyone plays the
    perturbed mixing x' throughout, and the first two players' realized
    continue actions double as the lottery letters.  At the block's
    final stage the designated player (if any) quits with probability
    eta.
    """

    game: QuittingGame
    sunspot: SunspotProfile
    epsilon: float
    T: int
    eps_block: float
    x_prime: dict[str, ProbabilityVector]
    partitions: dict[str, BinaryPartition]
    coins: BinaryCoinPair
    lottery_outcomes: OutcomeSet
    C: float
    calibration: CalibrationResult | None = None

    @property
    def device_players(self) -> tuple[str, str]:
        return self.game.players[0], self.game.players[1]


def build_block_profile(
    game: QuittingGame,
    sunspot: SunspotProfile,
    epsilon: float,
    *,
    C: float | None = None,
    seed: int = 0,
) -> BlockProfile:
    """Assemble the block profile and calibrate its lottery threshold.

    The per-block lottery accuracy target is epsilon / T, floored at
    ``EPS_BLOCK_FLOOR``: desk-scale calibration cannot resolve targets
    far below the sampling noise of the probes, and the payoff and
    deviation gates downstream are what actually certify the profile.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    for p in game.players[:2]:
        if game.continue_actions[p].size < 2:
            raise ValueError(
                f"player {p} has only one continue action; the lottery needs "
                "two players with at least two continue actions"
            )
    if set(sunspot.x) != set(game.players):
        raise ValueError("sunspot mixing must cover exactly the players")
    for p in game.players:
        if sunspot.x[p].outcomes.labels != game.continue_actions[p].labels:
            raise ValueError(f"mixing of {p} is not over their continue actions")
    if not callable(sunspot.eta):
        e = float(sunspot.eta)
        if not 0.0 < e < epsilon:
            raise ValueError(f"constant eta must be in (0, epsilon), got {e}")

    expected_labels = game.players + (NOBODY,)
    nu0 = sunspot.designation.probs(0)
    if nu0.outcomes.labels != expected_labels:
        raise ValueError(
            f"designation must be over {expected_labels} in that order, got {nu0.outcomes.labels}"
        )

    x_prime = dict(sunspot.x)
    for p in game.players[:2]:
        x_prime[p] = perturb_pure(sunspot.x[p], epsilon)

    T = horizon_T(sunspot, epsilon, seed=seed)
    eps_block = max(epsilon / T, EPS_BLOCK_FLOOR)

    partitions: dict[str, BinaryPartition] = {}
    p_alpha: list[float] = []
    for p in game.players[:2]:
        xp = x_prime[p]
        top = xp.outcomes.labels[int(np.argmax(xp.mass))]
        partitions[p] = BinaryPartition(xp.outcomes, frozenset({top}))
        p_alpha.append(float(np.max(xp.mass)))
    coins = BinaryCoinPair(p_alpha[0], p_alpha[1])

    outcomes = OutcomeSet(expected_labels)
    calibration = None
    if C is None:
        if nu0.is_dirac:
            # a deterministic designation needs no lottery accuracy
            C = 4.0 / eps_block**2
        else:
            calibration = calibrate_C(coins, nu0, eps_block, seed=seed)
            if not calibration.accepted:
                raise RuntimeError(
                    "lottery calibration exhausted its doubling schedule at "
                    f"eps_block={eps_block}; smallest failing report attached: "
                    f"{[ (p.adversary, p.device, round(p.linf, 4)) for p in calibration.probes[-4:] ]}"
                )
            C = calibration.C
    if C is None or C <= 0:
        raise ValueError("no positive lottery threshold C available")

    return BlockProfile(
        game=game,
        sunspot=sunspot,
        epsilon=epsilon,
        T=T,
        eps_block=eps_block,
        x_prime=x_prime,
        partitions=partitions,
        coins=coins,
        lottery_outcomes=outcomes,
        C=float(C),
        calibration=calibration,
    )


# deviation family


@dataclass(frozen=True)
class QuitAtBlock:
    """Conform until block k (1-based), then quit at its first stage."""

    block: int

    def __post_init__(self):
        if self.block < 1:
            raise ValueError(f"block index is 1-based, got {self.block}")

    @property
    def name(self) -> str:
        return f"quit-at-block:{self.block}"


@dataclass(frozen=True)
class ConstantContinue:
    """Replace the mixing with one fixed continue action, forever."""

    action: str

    @property
    def name(self) -> str:
        return f"constant-continue:{self.action}"


@dataclass(frozen=True)
class StallLottery:
    """Play lottery letters that slow the variance clock."""

    @property
    def name(self) -> str:
        return "stall-lottery"


Deviation = QuitAtBlock | ConstantContinue | StallLottery


def parse_deviation(name: str) -> Deviation:
    if name == "quit-immediately":
        return QuitAtBlock(1)
    if name == "stall-lottery":
        return StallLottery()
    kind, sep, arg = name.partition(":")
    if sep and kind == "quit-at-block":
        return QuitAtBlock(int(arg))
    if sep and kind == "constant-continue":
        return ConstantContinue(arg)
    raise ValueError(
        f"unknown deviation {name!r}; expected 'quit-at-block:<k>', "
        "'constant-continue:<action>', 'quit-immediately', or 'stall-lottery'"
    )


def _lottery_specs(
    profile: BlockProfile,
    deviator: tuple[str, Deviation] | None,
) -> tuple[AdversarySpec | None, int]:
    """Adversary spec and device slot a deviation induces on the lottery."""
    if deviator is None:
        return None, 1
    player, dev = deviator
    if player not in profile.device_players:
        return None, 1
    device = 1 if player == profile.device_players[0] else 2
    if isinstance(dev, StallLottery):
        return Stall(), device
    if isinstance(dev, ConstantContinue):
        letter = profile.partitions[player].letter_of(dev.action)
        return Constant(letter), device
    return None, device


def _validate_deviator(profile: BlockProfile, deviator: tuple[str, Deviation]) -> None:
    player, dev = deviator
    game = profile.game
    if player not in game.players:
        raise ValueError(f"unknown deviating player {player!r}")
    if isinstance(dev, QuitAtBlock) and dev.block > profile.T:
        raise ValueError(f"quit block {dev.block} exceeds the horizon T={profile.T}")
    if isinstance(dev, ConstantContinue) and dev.action not in game.continue_actions[player]:
        raise ValueError(f"{dev.action!r} is not a continue action of {player}")
    if isinstance(dev, StallLottery) and player not in profile.device_players:
        raise ValueError(
            f"{player} carries no lottery letters; stall-lottery applies only to "
            f"players {profile.device_players}"
        )


def _continue_payoff(profile: BlockProfile, deviator: tuple[str, Deviation] | None) -> np.ndarray:
    behavior: dict[str, ProbabilityVector | str] = {
        p: profile.x_prime[p] for p in profile.game.players
    }
    if deviator is not None and isinstance(deviator[1], ConstantContinue):
        behavior[deviator[0]] = deviator[1].action
    return profile.game.expected_payoff(behavior)


@dataclass(frozen=True)
class BlockSimResult:
    """Vector outcome of many block-profile runs."""

    players: tuple[str, ...]
    T: int
    block: np.ndarray           # int64, 1-based absorption block, -1 if none
    quitter: np.ndarray         # int64 player index, -1 if none
    payoff: np.ndarray          # (runs, |I|)

    @property
    def runs(self) -> int:
        return int(self.block.size)

    @property
    def absorbed_rate(self) -> float:
        return float(np.mean(self.block >= 0)) if self.runs else 0.0


def _block_laws(
    profile: BlockProfile, horizon: int,
) -> tuple[np.ndarray, list[ProbabilityVector], np.ndarray]:
    """Per-block designation laws and quit rates over ``horizon`` blocks.

    Returns each block's index into the list of distinct laws, that
    list, and the quit rates as a (horizon, |I|+1) array whose last
    column, NOBODY's, is 0.  Every block is checked before anything is
    drawn.
    """
    law_of = np.empty(horizon, dtype=np.int64)
    laws: list[ProbabilityVector] = []
    seen: dict[bytes, int] = {}
    eta = np.empty((horizon, profile.lottery_outcomes.size))
    for t in range(horizon):
        nu_t, eta[t] = _block_row(profile.sunspot, profile.lottery_outcomes.labels, t)
        key = nu_t.mass.tobytes()
        if key not in seen:
            seen[key] = len(laws)
            laws.append(nu_t)
        law_of[t] = seen[key]
    return law_of, laws, eta


def simulate_block_profile(
    profile: BlockProfile,
    runs: int,
    *,
    deviator: tuple[str, Deviation] | None = None,
    seed: int = 0,
    context: tuple = (),
) -> BlockSimResult:
    """Run many block-profile plays at once, drawing a block's lottery
    only where a quit can happen.

    A run absorbs at block t when its lottery names a player j and an
    independent coin falls below eta_t(j).  With eta_max the largest
    eta_t(j) over the horizon, the blocks where the coin falls below
    eta_max (the candidates) form a Bernoulli(eta_max) process, so the
    next candidate is one geometric draw away.  Only a candidate block
    draws its lottery outcome j, and it quits with probability
    eta_t(j)/eta_max (NOBODY never quits).  This thinning leaves the law
    of (absorption block, quitter, payoff) exactly as block-by-block
    play gives it.

    Runs advance in rounds, each live run to its next candidate.  The
    adversary spec is the same in every block, so all lotteries with
    one designation law are i.i.d.: a round makes one
    :func:`simulate_strong` call per distinct law among its candidates,
    whichever blocks they sit in.  Dirac laws need no lottery, since
    their outcome is forced regardless of letters.  A quit-at-block-k
    deviation plays k-1 blocks this way and absorbs every survivor at
    block k.  Stage counts inside blocks do not affect payoffs, so only
    block granularity is tracked here.
    """
    if runs < 0:
        raise ValueError(f"runs must be nonnegative, got {runs}")
    game = profile.game
    if deviator is not None:
        _validate_deviator(profile, deviator)
    players = game.players
    forced = deviator is not None and isinstance(deviator[1], QuitAtBlock)
    horizon = deviator[1].block - 1 if forced else profile.T
    law_of, laws, eta = _block_laws(profile, horizon)
    eta_max = float(eta.max(initial=0.0))
    harness = substream(seed, *context, "game")
    spec, spec_device = _lottery_specs(profile, deviator)

    block = np.full(runs, -1, dtype=np.int64)
    quitter = np.full(runs, -1, dtype=np.int64)
    payoff = np.zeros((runs, len(players)))
    idx = np.arange(runs if eta_max > 0.0 else 0)
    passed = np.zeros(idx.size, dtype=np.int64)     # blocks each live run has played

    r = 0
    while idx.size:
        t = passed + harness.geometric(eta_max, idx.size) - 1
        live = t < horizon
        idx, t = idx[live], t[live]
        outcome = np.empty(idx.size, dtype=np.int64)
        law_at = law_of[t]
        for k in np.unique(law_at):
            at = law_at == k
            law = laws[k]
            if law.is_dirac:
                outcome[at] = int(np.argmax(law.mass))
            else:
                outcome[at] = simulate_strong(
                    profile.coins, law, profile.C, int(np.count_nonzero(at)),
                    adversary=spec, adversary_device=spec_device,
                    seed=seed, context=(*context, "round", r, int(k)),
                ).outcome_idx
        quits = harness.random(idx.size) < eta[t, outcome] / eta_max
        rows, who = idx[quits], outcome[quits]
        _, payoff[rows] = _absorb(profile, harness, who, deviator)
        block[rows] = t[quits] + 1
        quitter[rows] = who
        idx, passed = idx[~quits], t[~quits] + 1
        r += 1

    rest = np.nonzero(block < 0)[0]
    if forced:
        dev_idx = players.index(deviator[0])
        _, payoff[rest] = _absorb(profile, harness, np.full(rest.size, dev_idx), deviator)
        block[rest] = horizon + 1
        quitter[rest] = dev_idx
    elif rest.size:
        payoff[rest] = _continue_payoff(profile, deviator)

    return BlockSimResult(players, profile.T, block, quitter, payoff)


def _absorb(
    profile: BlockProfile,
    rng: np.random.Generator,
    quitter_idx: np.ndarray,
    deviator: tuple[str, Deviation] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Realized absorption of runs whose quitters are ``quitter_idx``.

    Every other player draws a continue action from x' (a constant
    continue deviator plays its action).  Returns the action indices,
    shape (runs, players), and the payoff vectors.
    """
    game = profile.game
    players = game.players
    k = quitter_idx.size
    action_idx = np.empty((k, len(players)), dtype=np.int64)
    for j, p in enumerate(players):
        if deviator is not None and p == deviator[0] and isinstance(deviator[1], ConstantContinue):
            action_idx[:, j] = game.action_index(p, deviator[1].action)
            continue
        pv = profile.x_prime[p]
        cum = np.cumsum(pv.mass)
        draws = np.searchsorted(cum, rng.random(k), side="right")
        action_idx[:, j] = np.minimum(draws, pv.outcomes.size - 1)
    quit_pos = np.array([len(game.action_space(p)) - 1 for p in players], dtype=np.int64)
    action_idx[np.arange(k), quitter_idx] = quit_pos[quitter_idx]
    tensor = game.payoff_tensor
    return action_idx, tensor[tuple(action_idx[:, j] for j in range(len(players)))]


@dataclass(frozen=True)
class PayoffEstimate:
    mean: np.ndarray
    half_width: float
    n: int

    def as_dict(self) -> dict:
        return {
            "mean": [float(v) for v in self.mean],
            "ci_half_width": self.half_width,
            "n": self.n,
        }


def _ci_half_width(n: int) -> float:
    # per-coordinate 99% half-width used by every estimate in this module
    return 3.0 * math.sqrt(math.log(2.0 / 0.01) / (2.0 * n))


def estimate_payoff(
    profile: BlockProfile,
    n_runs: int,
    *,
    deviator: tuple[str, Deviation] | None = None,
    seed: int = 0,
    context: tuple = (),
) -> PayoffEstimate:
    """Monte Carlo payoff vector with a per-coordinate confidence bound."""
    if n_runs < 1:
        raise ValueError(f"n_runs must be positive, got {n_runs}")
    sim = simulate_block_profile(profile, n_runs, deviator=deviator, seed=seed, context=context)
    return PayoffEstimate(sim.payoff.mean(axis=0), _ci_half_width(n_runs), n_runs)


@dataclass(frozen=True)
class DeviationEntry:
    name: str
    payoff: float               # deviator's own estimated payoff
    gain: float                 # payoff minus the on-path estimate
    ci: float                   # half-width budget for the gain

    def as_dict(self) -> dict:
        return {"name": self.name, "payoff": self.payoff, "gain": self.gain, "ci": self.ci}


@dataclass(frozen=True)
class DeviationReport:
    player: str
    on_path: float
    on_path_ci: float
    entries: list[DeviationEntry] = field(default_factory=list)

    @property
    def max_gain(self) -> float:
        return max((e.gain for e in self.entries), default=0.0)

    @property
    def worst(self) -> DeviationEntry | None:
        return max(self.entries, key=lambda e: e.gain, default=None)

    def as_dict(self) -> dict:
        return {
            "player": self.player,
            "on_path": self.on_path,
            "on_path_ci": self.on_path_ci,
            "max_gain": self.max_gain,
            "entries": [e.as_dict() for e in self.entries],
        }


def deviation_gain(
    profile: BlockProfile,
    player: str,
    n_runs: int,
    *,
    family: list[Deviation] | None = None,
    seed: int = 0,
    context: tuple = (),
) -> DeviationReport:
    """Best estimated gain for one player over a finite deviation family.

    The default family is quit-at-block-k for every k up to T (which
    subsumes quitting immediately), one constant-continue per continue
    action, and stall-lottery when the player carries lottery letters.
    All quit-at-block-k estimates reuse a single on-path simulation:
    play before block k is on-strategy, so a run absorbed before k
    keeps its realized payoff and any other run is scored with the
    exact expected payoff of quitting alone against x'.
    """
    game = profile.game
    if player not in game.players:
        raise ValueError(f"unknown player {player!r}")
    if n_runs < 1:
        raise ValueError(f"n_runs must be positive, got {n_runs}")
    pi = game.players.index(player)
    half = _ci_half_width(n_runs)

    if family is None:
        family = [QuitAtBlock(k) for k in range(1, profile.T + 1)]
        family += [ConstantContinue(a) for a in game.continue_actions[player].labels]
        if player in profile.device_players:
            family.append(StallLottery())
    for dev in family:
        _validate_deviator(profile, (player, dev))

    on_sim = simulate_block_profile(
        profile, n_runs, seed=seed, context=(*context, "on-path"),
    )
    on_path = float(on_sim.payoff[:, pi].mean())
    quit_vec = float(game.quit_value(player, profile.x_prime)[pi])
    absorbed_before = on_sim.block  # -1 when never absorbed

    entries: list[DeviationEntry] = []
    sim_cache: dict[str, float] = {}
    for dev in family:
        if isinstance(dev, QuitAtBlock):
            keep = (absorbed_before >= 0) & (absorbed_before < dev.block)
            dev_payoff = np.where(keep, on_sim.payoff[:, pi], quit_vec)
            est = float(dev_payoff.mean())
            # same-path coupling: both estimates share the simulation
            entries.append(DeviationEntry(dev.name, est, est - on_path, 2.0 * half))
            continue
        if dev.name not in sim_cache:
            dev_sim = simulate_block_profile(
                profile, n_runs, deviator=(player, dev),
                seed=seed, context=(*context, dev.name),
            )
            sim_cache[dev.name] = float(dev_sim.payoff[:, pi].mean())
        est = sim_cache[dev.name]
        entries.append(DeviationEntry(dev.name, est, est - on_path, 2.0 * half))

    return DeviationReport(player, on_path, half, entries)


def oracle_payoff(profile: BlockProfile) -> np.ndarray:
    """Exact expected payoff of the block profile, assuming exact
    per-block lotteries.

    Walks the designation chain block by block: absorption at block t
    by player i has probability survive * nu_t(i) * eta_t(i), and each
    absorption pays the exact expected payoff of i quitting alone.
    The lottery approximation error is not modeled here; this is the
    reference the Monte Carlo estimate is compared against.
    """
    game = profile.game
    players = game.players
    gamma = np.zeros(len(players))
    survive = 1.0
    quit_vectors = [game.quit_value(p, profile.x_prime) for p in players]
    law_of, laws, eta = _block_laws(profile, profile.T)
    for t in range(profile.T):
        mass = laws[law_of[t]].mass
        p_absorb = 0.0
        for i in range(len(players)):
            q = float(mass[i]) * float(eta[t, i])
            if q > 0.0:
                gamma += survive * q * quit_vectors[i]
                p_absorb += q
        survive *= 1.0 - p_absorb
    gamma += survive * _continue_payoff(profile, None)
    return gamma


def sunspot_from_dict(game: QuittingGame, d: dict) -> SunspotProfile:
    """Sunspot data from config JSON: mixing, designation, eta, target."""
    unknown = set(d) - {"x", "designation", "eta", "target_payoff"}
    if unknown:
        raise ValueError(f"unknown sunspot keys: {sorted(unknown)}")
    x: dict[str, ProbabilityVector] = {}
    for p in game.players:
        if p not in d["x"]:
            raise ValueError(f"sunspot mixing missing player {p}")
        weights = d["x"][p]
        acts = game.continue_actions[p]
        mass = [json_number(weights.get(a, 0.0), f"mixing weight {p}/{a}") for a in acts.labels]
        extra = set(weights) - set(acts.labels)
        if extra:
            raise ValueError(f"mixing of {p} names unknown actions {sorted(extra)}")
        x[p] = ProbabilityVector(acts, mass)
    outcomes = OutcomeSet(game.players + (NOBODY,))
    des = d["designation"]
    kind = des.get("type")
    if kind == "stationary":
        probs = des.get("probs", {})
        extra = set(probs) - set(outcomes.labels)
        if extra:
            raise ValueError(f"designation names unknown labels {sorted(extra)}")
        pv = ProbabilityVector(outcomes, [
            json_number(probs.get(l, 0.0), f"designation prob of {l!r}") for l in outcomes.labels
        ])
        rule: DesignationRule = StationaryDesignation(pv)
    elif kind == "cyclic":
        rule = CyclicDesignation(outcomes, tuple(des.get("order", ())))
    else:
        raise ValueError(f"unknown designation type {kind!r}; expected 'stationary' or 'cyclic'")
    eta = json_number(d["eta"], "eta")
    target = d.get("target_payoff")
    if target is not None:
        target = _json_numbers(target, "target_payoff")
        if target.shape != (len(game.players),):
            raise ValueError("target_payoff must list one value per player")
    return SunspotProfile(x=x, designation=rule, eta=eta, target_payoff=target)

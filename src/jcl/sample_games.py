"""Worked example games used by the docs, the CLI demos, and the tests."""

from __future__ import annotations

import numpy as np

from .core import OutcomeSet, ProbabilityVector
from .game import (
    NOBODY,
    QUIT,
    CyclicDesignation,
    QuittingGame,
    StationaryDesignation,
    SunspotProfile,
)

# Single-quit payoff vectors by quitter.  Payoffs ignore continue
# actions entirely, which keeps the equilibrium target exact: each
# player's own-quit payoff equals the average of what the other two
# quitters hand them, so quitting when designated and never quitting
# tie to the cent.
_SOLO = {
    "P1": np.array([0.55, 0.20, 0.60]),
    "P2": np.array([0.80, 0.55, 0.40]),
    "P3": np.array([0.30, 0.90, 0.50]),
}
_CONTINUE = np.array([0.10, 0.10, 0.10])


def _build_game() -> QuittingGame:
    players = ("P1", "P2", "P3")
    actions = {
        "P1": OutcomeSet(("a", "b")),
        "P2": OutcomeSet(("c", "d")),
        "P3": OutcomeSet(("e",)),
    }
    payoffs: dict[tuple[str, ...], np.ndarray] = {}
    import itertools

    spaces = [tuple(actions[p].labels) + (QUIT,) for p in players]
    for profile in itertools.product(*spaces):
        quitters = [p for p, a in zip(players, profile) if a == QUIT]
        if not quitters:
            payoffs[profile] = _CONTINUE.copy()
        else:
            payoffs[profile] = np.min([_SOLO[p] for p in quitters], axis=0)
    return QuittingGame(players, actions, payoffs)


def _profile(*, cyclic: bool = False, x_p1=(0.6, 0.4)) -> tuple[QuittingGame, SunspotProfile]:
    """The example game and its sunspot.

    P1 mixes by ``x_p1``, P2 evenly and P3 plays its one action; eta is
    0.02.  The designation is the stationary law 0.3/0.3/0.3/0.1 or,
    with ``cyclic``, the rotation P1, P2, P3; the target is the exact
    payoff of that designation.
    """
    game = _build_game()
    acts = game.continue_actions
    x = {
        "P1": ProbabilityVector(acts["P1"], list(x_p1)),
        "P2": ProbabilityVector(acts["P2"], [0.5, 0.5]),
        "P3": ProbabilityVector(acts["P3"], [1.0]),
    }
    outcomes = OutcomeSet(game.players + (NOBODY,))
    eta = 0.02
    if cyclic:
        designation = CyclicDesignation(outcomes, game.players)
        # the quitter over one rotation is offset r with weight (1-eta)^r
        weights = np.array([(1.0 - eta) ** r for r in range(3)])
        weights /= weights.sum()
        target = sum(w * _SOLO[p] for w, p in zip(weights, game.players))
    else:
        designation = StationaryDesignation(ProbabilityVector(outcomes, [0.3, 0.3, 0.3, 0.1]))
        target = np.mean([_SOLO[p] for p in game.players], axis=0)
    return game, SunspotProfile(x=x, designation=designation, eta=eta, target_payoff=target)


def example_quitting_game() -> tuple[QuittingGame, SunspotProfile]:
    """Three players, stationary designation, exact target (0.55, 0.55, 0.5)."""
    return _profile()


def cyclic_variant() -> tuple[QuittingGame, SunspotProfile]:
    """Same game under a deterministic P1, P2, P3 rotation.

    With constant eta the infinite-horizon quitter distribution over
    one rotation is proportional to (1-eta)^r at offset r, which gives
    the exact target.
    """
    return _profile(cyclic=True)


def perturbed_variant() -> tuple[QuittingGame, SunspotProfile]:
    """Stationary example with P1 mixing degenerate at 'a'.

    Exercises the pure-action repair: the block profile must perturb
    P1's mixing before it can carry lottery letters.
    """
    return _profile(x_p1=(1.0, 0.0))

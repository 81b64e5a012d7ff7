"""Quitting games, block profiles, payoff and deviation estimation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

import jcl.game

from jcl import (
    ALPHA,
    BETA,
    NOBODY,
    QUIT,
    ConstantContinue,
    CyclicDesignation,
    OutcomeSet,
    ProbabilityVector,
    QuitAtBlock,
    QuittingGame,
    StallLottery,
    StationaryDesignation,
    SunspotProfile,
    build_block_profile,
    deviation_gain,
    estimate_payoff,
    hoeffding_margin,
    horizon_T,
    oracle_payoff,
    parse_deviation,
    perturb_pure,
    simulate_block_profile,
    sunspot_from_dict,
)
from jcl.sample_games import cyclic_variant, example_quitting_game, perturbed_variant
from jcl.strong import CalibrationResult

SOLO = {
    "P1": np.array([0.55, 0.20, 0.60]),
    "P2": np.array([0.80, 0.55, 0.40]),
    "P3": np.array([0.30, 0.90, 0.50]),
}


@pytest.fixture(scope="module")
def example():
    return example_quitting_game()


@pytest.fixture(scope="module")
def sim_profile(example):
    # explicit C skips calibration; big enough for honest block laws
    game, sunspot = example
    return build_block_profile(game, sunspot, 0.05, C=400.0, seed=0)


def _no_lottery(*args, **kwargs):
    raise AssertionError("a simulation ran before the checks")


def _tiny_game():
    players = ("A",)
    acts = {"A": OutcomeSet(("u", "v"))}
    payoffs = {
        ("u",): np.array([0.2]),
        ("v",): np.array([0.4]),
        (QUIT,): np.array([0.9]),
    }
    return QuittingGame(players, acts, payoffs)


class TestQuittingGame:
    def test_payoff_lookup_and_quitter_rule(self, example):
        game, _ = example
        assert np.array_equal(game.payoff(("a", "c", "e")), [0.1, 0.1, 0.1])
        assert np.array_equal(game.payoff((QUIT, "c", "e")), SOLO["P1"])
        assert np.array_equal(
            game.payoff({"P1": QUIT, "P2": QUIT, "P3": "e"}),
            np.minimum(SOLO["P1"], SOLO["P2"]),
        )

    def test_expected_payoff_mixes_exactly(self):
        g = _tiny_game()
        pv = ProbabilityVector(g.continue_actions["A"], [0.25, 0.75])
        assert g.expected_payoff({"A": pv})[0] == pytest.approx(0.35, abs=1e-15)
        assert g.expected_payoff({"A": QUIT})[0] == 0.9

    def test_continue_and_quit_values(self, example):
        game, sunspot = example
        assert np.allclose(game.continue_value(sunspot.x), [0.1, 0.1, 0.1], atol=1e-12)
        for p in game.players:
            assert np.allclose(game.quit_value(p, sunspot.x), SOLO[p], atol=1e-12)

    def test_payoff_tensor_shape_and_readonly(self, example):
        game, _ = example
        t = game.payoff_tensor
        assert t.shape == (3, 3, 2, 3)
        assert not t.flags.writeable
        i = game.action_index("P1", QUIT)
        j = game.action_index("P2", "c")
        k = game.action_index("P3", "e")
        assert np.array_equal(t[i, j, k], SOLO["P1"])

    def test_validation(self):
        acts = {"A": OutcomeSet(("u", "v"))}
        good = {
            ("u",): [0.2], ("v",): [0.4], (QUIT,): [0.9],
        }
        with pytest.raises(ValueError, match="total"):
            QuittingGame(("A",), acts, {("u",): [0.2], (QUIT,): [0.9]})
        with pytest.raises(ValueError, match="0,1"):
            QuittingGame(("A",), acts, {**good, ("v",): [1.4]})
        with pytest.raises(ValueError, match="reserved"):
            QuittingGame((NOBODY,), {NOBODY: OutcomeSet(("u", "v"))}, {})
        with pytest.raises(ValueError, match="reserved"):
            QuittingGame(("A",), {"A": OutcomeSet(("u", QUIT))}, {})
        with pytest.raises(ValueError, match="distinct"):
            QuittingGame(("A", "A"), acts, {})
        with pytest.raises(ValueError, match="unknown action"):
            QuittingGame(
                ("A",), acts, {("w",): [0.5], ("v",): [0.4], (QUIT,): [0.9]}
            )
        with pytest.raises(ValueError, match="cover"):
            QuittingGame(("A",), {"B": OutcomeSet(("u", "v"))}, good)

    def test_dict_round_trip(self, example):
        game, _ = example
        clone = QuittingGame.from_dict(game.to_dict())
        assert clone.players == game.players
        assert np.array_equal(clone.payoff_tensor, game.payoff_tensor)
        with pytest.raises(ValueError, match="unknown game keys"):
            QuittingGame.from_dict({**game.to_dict(), "extra": 1})


class TestSunspotPieces:
    def test_perturb_pure(self):
        pv = ProbabilityVector.from_dict({"u": 1.0, "v": 0.0})
        out = perturb_pure(pv, 0.1)
        assert np.allclose(out.mass, [0.9, 0.1], atol=1e-15)
        wrapped = perturb_pure(ProbabilityVector.from_dict({"u": 0.0, "v": 1.0}), 0.1)
        assert np.allclose(wrapped.mass, [0.1, 0.9], atol=1e-15)
        mixed = ProbabilityVector.from_dict({"u": 0.6, "v": 0.4})
        assert perturb_pure(mixed, 0.1) is mixed
        with pytest.raises(ValueError, match="single-action"):
            perturb_pure(ProbabilityVector.from_dict({"u": 1.0}), 0.1)
        with pytest.raises(ValueError, match="epsilon"):
            perturb_pure(pv, 0.0)

    def test_designation_rules(self):
        outcomes = OutcomeSet(("P1", "P2", NOBODY))
        cyc = CyclicDesignation(outcomes, ("P1", "P2"))
        seq = [cyc.probs(t).outcomes.labels[int(np.argmax(cyc.probs(t).mass))] for t in range(5)]
        assert seq == ["P1", "P2", "P1", "P2", "P1"]
        stat = StationaryDesignation(ProbabilityVector(outcomes, [0.5, 0.4, 0.1]))
        assert stat.probs(0) is stat.probs(99)
        with pytest.raises(ValueError, match="nonempty"):
            CyclicDesignation(outcomes, ())
        with pytest.raises(ValueError, match="not in the designation set"):
            CyclicDesignation(outcomes, ("P1", "P9"))

    def test_sunspot_from_dict(self, example):
        game, _ = example
        d = {
            "x": {"P1": {"a": 0.6, "b": 0.4}, "P2": {"c": 0.5, "d": 0.5}, "P3": {"e": 1.0}},
            "designation": {"type": "stationary",
                            "probs": {"P1": 0.3, "P2": 0.3, "P3": 0.3, NOBODY: 0.1}},
            "eta": 0.02,
            "target_payoff": [0.55, 0.55, 0.5],
        }
        s = sunspot_from_dict(game, d)
        assert s.eta == 0.02
        assert np.allclose(s.x["P1"].mass, [0.6, 0.4])
        assert np.allclose(s.designation.probs(0).mass, [0.3, 0.3, 0.3, 0.1])
        cyc = sunspot_from_dict(game, {**d, "designation": {"type": "cyclic", "order": ["P1", "P2", "P3"]}})
        assert isinstance(cyc.designation, CyclicDesignation)

    def test_sunspot_from_dict_rejects_garbage(self, example):
        game, _ = example
        base = {
            "x": {"P1": {"a": 1.0}, "P2": {"c": 0.5, "d": 0.5}, "P3": {"e": 1.0}},
            "designation": {"type": "stationary",
                            "probs": {"P1": 0.3, "P2": 0.3, "P3": 0.3, NOBODY: 0.1}},
            "eta": 0.02,
        }
        with pytest.raises(ValueError, match="unknown sunspot keys"):
            sunspot_from_dict(game, {**base, "bogus": 1})
        with pytest.raises(ValueError, match="missing player"):
            sunspot_from_dict(game, {**base, "x": {"P1": {"a": 1.0}}})
        with pytest.raises(ValueError, match="unknown actions"):
            sunspot_from_dict(game, {**base, "x": {**base["x"], "P1": {"zzz": 1.0}}})
        with pytest.raises(ValueError, match="unknown labels"):
            sunspot_from_dict(
                game, {**base, "designation": {"type": "stationary", "probs": {"P9": 1.0}}}
            )
        with pytest.raises(ValueError, match="unknown designation type"):
            sunspot_from_dict(game, {**base, "designation": {"type": "markov"}})
        with pytest.raises(ValueError, match="eta"):
            sunspot_from_dict(game, {**base, "eta": "fast"})
        with pytest.raises(ValueError, match="one value per player"):
            sunspot_from_dict(game, {**base, "target_payoff": [0.5]})


class TestHorizon:
    def _always(self, eta):
        outcomes = OutcomeSet(("P1", NOBODY))
        x = {"P1": ProbabilityVector.from_dict({"u": 0.5, "v": 0.5})}
        return SunspotProfile(
            x=x,
            designation=StationaryDesignation(ProbabilityVector(outcomes, [1.0, 0.0])),
            eta=eta,
        )

    def test_closed_form_always_designated(self):
        assert horizon_T(self._always(0.01), 0.05) == 299
        assert horizon_T(self._always(0.02), 0.05) == 149

    def test_monte_carlo_agrees_when_paths_are_deterministic(self):
        t_closed = horizon_T(self._always(0.01), 0.05, method="closed_form")
        t_mc = horizon_T(self._always(0.01), 0.05, method="monte_carlo", seed=3)
        assert t_closed == t_mc == 299

    def test_idle_mass_scales_the_horizon(self):
        outcomes = OutcomeSet(("P1", NOBODY))
        x = {"P1": ProbabilityVector.from_dict({"u": 0.5, "v": 0.5})}
        half = SunspotProfile(
            x=x,
            designation=StationaryDesignation(ProbabilityVector(outcomes, [0.5, 0.5])),
            eta=0.02,
        )
        assert horizon_T(half, 0.05) == 297  # about twice the dense 149

    def test_cyclic_rate_counts_idle_slots(self):
        outcomes = OutcomeSet(("P1", NOBODY))
        x = {"P1": ProbabilityVector.from_dict({"u": 0.5, "v": 0.5})}
        s = SunspotProfile(
            x=x,
            designation=CyclicDesignation(outcomes, ("P1", NOBODY)),
            eta=0.02,
        )
        assert horizon_T(s, 0.05) == 297

    def test_error_cases(self):
        with pytest.raises(ValueError, match="never terminates"):
            horizon_T(self._always(0.0), 0.05)
        with pytest.raises(ValueError, match="epsilon"):
            horizon_T(self._always(0.01), 0.0)
        with pytest.raises(ValueError, match="unknown method"):
            horizon_T(self._always(0.01), 0.05, method="guess")
        with pytest.raises(ValueError, match="closed form"):
            horizon_T(self._always(lambda t, p: 0.01), 0.05, method="closed_form")
        with pytest.raises(ValueError, match="never names a player"):
            horizon_T(
                SunspotProfile(
                    x=self._always(0.01).x,
                    designation=StationaryDesignation(
                        ProbabilityVector(OutcomeSet(("P1", NOBODY)), [0.0, 1.0])
                    ),
                    eta=0.01,
                ),
                0.05,
            )
        with pytest.raises(ValueError, match="cannot certify"):
            horizon_T(self._always(lambda t, p: 0.01), 0.05, samples=50)
        with pytest.raises(RuntimeError, match="still above epsilon"):
            horizon_T(
                self._always(lambda t, p: 1e-7), 0.05, samples=2000, t_max=400
            )

    def test_callable_eta_via_monte_carlo(self):
        t = horizon_T(self._always(lambda t, p: 0.01), 0.05, seed=1)
        assert t == 299  # constant in disguise, every path stops together


class TestDeviationParsing:
    def test_forms(self):
        assert parse_deviation("quit-at-block:7") == QuitAtBlock(7)
        assert parse_deviation("quit-immediately") == QuitAtBlock(1)
        assert parse_deviation("constant-continue:b") == ConstantContinue("b")
        assert parse_deviation("stall-lottery") == StallLottery()

    def test_rejects(self):
        with pytest.raises(ValueError, match="unknown deviation"):
            parse_deviation("defect")
        with pytest.raises(ValueError, match="1-based"):
            QuitAtBlock(0)
        with pytest.raises(ValueError):
            parse_deviation("quit-at-block:x")


class TestBuildProfile:
    def test_example_profile_shape(self, sim_profile):
        p = sim_profile
        assert p.T == 165
        assert p.eps_block == 0.02
        assert p.C == 400.0
        assert p.calibration is None
        assert p.device_players == ("P1", "P2")
        assert (p.coins.p1_alpha, p.coins.p2_alpha) == (0.6, 0.5)
        assert p.partitions["P1"].letter_of("a") == ALPHA
        assert p.partitions["P1"].letter_of("b") == BETA
        assert p.partitions["P2"].letter_of("c") == ALPHA
        assert p.lottery_outcomes.labels == ("P1", "P2", "P3", NOBODY)

    def test_perturbed_variant_repairs_pure_mixing(self):
        game, sunspot = perturbed_variant()
        prof = build_block_profile(game, sunspot, 0.05, C=50.0, seed=0)
        assert np.allclose(prof.x_prime["P1"].mass, [0.95, 0.05], atol=1e-12)
        assert prof.coins.p1_alpha == pytest.approx(0.95)

    def test_rejects_single_action_device_player(self):
        acts = {"A": OutcomeSet(("u",)), "B": OutcomeSet(("x", "y"))}
        payoffs = {}
        import itertools
        for prof in itertools.product(("u", QUIT), ("x", "y", QUIT)):
            payoffs[prof] = np.array([0.5, 0.5])
        g = QuittingGame(("A", "B"), acts, payoffs)
        s = SunspotProfile(
            x={"A": ProbabilityVector(acts["A"], [1.0]),
               "B": ProbabilityVector(acts["B"], [0.5, 0.5])},
            designation=StationaryDesignation(
                ProbabilityVector(OutcomeSet(("A", "B", NOBODY)), [0.5, 0.4, 0.1])
            ),
            eta=0.02,
        )
        with pytest.raises(ValueError, match="player A has only one continue action"):
            build_block_profile(g, s, 0.05, C=10.0)

    def test_rejects_eta_outside_epsilon(self, example):
        game, sunspot = example
        with pytest.raises(ValueError, match="constant eta"):
            build_block_profile(game, sunspot, 0.01, C=10.0)

    def test_rejects_wrong_designation_labels(self, example):
        game, sunspot = example
        bad = SunspotProfile(
            x=sunspot.x,
            designation=StationaryDesignation(
                ProbabilityVector(OutcomeSet((NOBODY,) + game.players), [0.1, 0.3, 0.3, 0.3])
            ),
            eta=0.02,
        )
        with pytest.raises(ValueError, match="designation must be over"):
            build_block_profile(game, bad, 0.05, C=10.0)

    def test_rejects_foreign_mixing(self, example):
        game, sunspot = example
        bad_x = dict(sunspot.x)
        bad_x["P2"] = ProbabilityVector.from_dict({"wrong": 1.0, "also": 0.0})
        bad = SunspotProfile(x=bad_x, designation=sunspot.designation, eta=0.02)
        with pytest.raises(ValueError, match="not over their continue actions"):
            build_block_profile(game, bad, 0.05, C=10.0)


class _FirstThen:
    """Designation law ``first`` at block 0 and ``rest`` after it."""

    def __init__(self, first, rest):
        self.first, self.rest = first, rest

    def probs(self, t):
        return self.first if t == 0 else self.rest


class TestCalibratedLaw:
    """build_block_profile calibrates the one non-Dirac law its blocks play."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # the calibrate_C arguments of each call, answered with C = 1234
        calls = []

        def fake(coins, law, eps_block, *, seed):
            calls.append((coins, law, eps_block, seed))
            return CalibrationResult(eps_block, 1.0, 1234.0, True, 0)

        monkeypatch.setattr(jcl.game, "calibrate_C", fake)
        return calls

    def _switching(self, example, first, rest):
        game, sunspot = example
        outcomes = OutcomeSet(game.players + (NOBODY,))
        rule = _FirstThen(ProbabilityVector(outcomes, first), ProbabilityVector(outcomes, rest))
        return game, replace(sunspot, designation=rule)

    def test_dirac_first_block_calibrates_the_later_law(self, example, calls):
        game, sunspot = self._switching(example, [1.0, 0.0, 0.0, 0.0], [0.3, 0.3, 0.3, 0.1])
        prof = build_block_profile(game, sunspot, 0.05, seed=0)
        assert prof.T == 174
        assert [(law.mass.tolist(), eps) for _, law, eps, _ in calls] == [
            ([0.3, 0.3, 0.3, 0.1], prof.eps_block)
        ]
        assert prof.C == 1234.0 and prof.calibration.C == 1234.0

    def test_two_mixed_laws_are_refused(self, example, calls):
        game, sunspot = self._switching(example, [0.3, 0.3, 0.3, 0.1], [0.25, 0.25, 0.25, 0.25])
        with pytest.raises(ValueError, match="designation at block 1 plays a second non-Dirac"):
            build_block_profile(game, sunspot, 0.05, seed=0)
        assert calls == []

    def test_sample_profiles_keep_their_calibration(self, calls):
        # stationary profiles calibrate block 0's law, as before; a
        # cyclic one is all Dirac and keeps 4 / eps_block^2
        for make in (example_quitting_game, perturbed_variant):
            game, sunspot = make()
            calls.clear()
            prof = build_block_profile(game, sunspot, 0.05, seed=3)
            nu0 = sunspot.designation.probs(0)
            assert [(c, law.mass.tolist(), e, sd) for c, law, e, sd in calls] == [
                (prof.coins, nu0.mass.tolist(), prof.eps_block, 3)
            ]
            assert prof.C == 1234.0
        calls.clear()
        prof = build_block_profile(*cyclic_variant(), 0.05, seed=3)
        assert calls == [] and prof.calibration is None
        assert prof.C == 4.0 / prof.eps_block**2


class TestPlay:
    """Single plays: ``simulate_block_profile(profile, 1)``."""

    def test_some_runs_absorb_and_report_blocks(self, sim_profile):
        absorbed = 0
        for seed in range(12):
            r = simulate_block_profile(sim_profile, 1, seed=seed)
            if r.block[0] >= 0:
                absorbed += 1
                assert 1 <= r.block[0] <= sim_profile.T
                assert 0 <= r.quitter[0] < len(sim_profile.game.players)
            else:
                assert r.quitter[0] == -1
        assert absorbed >= 8  # survival probability is about 5 percent


class TestBlockSimulation:
    def test_oracle_matches_independent_formula(self, sim_profile):
        # uniform designation with equal eta makes the quitter uniform,
        # so the absorbed part pays the average solo vector
        gamma = oracle_payoff(sim_profile)
        survive = (1.0 - 3 * 0.3 * 0.02) ** 165
        expect = (1 - survive) * np.mean(list(SOLO.values()), axis=0) + survive * 0.1
        assert np.allclose(gamma, expect, atol=1e-12)
        assert np.allclose(gamma, [0.5275, 0.5275, 0.48], atol=5e-4)

    def test_estimate_tracks_oracle(self, sim_profile):
        est = estimate_payoff(sim_profile, 4000, seed=42)
        gamma = oracle_payoff(sim_profile)
        assert est.n == 4000
        assert est.half_width == pytest.approx(
            3.0 * math.sqrt(math.log(2.0 / 0.01) / 8000.0), abs=1e-12
        )
        assert np.max(np.abs(est.mean - gamma)) <= est.half_width + 0.02

    def test_absorbed_rate_near_exact_survival(self, sim_profile):
        sim = simulate_block_profile(sim_profile, 4000, seed=7)
        expect = 1.0 - (1.0 - 0.018) ** 165
        assert sim.absorbed_rate == pytest.approx(expect, abs=0.02)
        done = sim.block >= 0
        assert np.all((sim.block[done] >= 1) & (sim.block[done] <= sim_profile.T))
        assert np.all(sim.quitter[done] >= 0)
        assert np.all(sim.block[~done] == -1)

    def test_quitter_frequencies_match_designation(self, sim_profile):
        # constant eta: the quitter of an absorbed run is the lottery's
        # designee given that it named a player, so nu restricted to players
        sim = simulate_block_profile(sim_profile, 4000, seed=9)
        done = sim.block >= 0
        n = int(done.sum())
        freq = np.bincount(sim.quitter[done], minlength=3) / n
        bound = sim_profile.eps_block + hoeffding_margin(n, 3, 0.01)
        assert np.max(np.abs(freq - 1.0 / 3.0)) <= bound

    def test_quit_at_block_sweep_matches_direct_simulation(self, sim_profile):
        n = 4000
        rep = deviation_gain(sim_profile, "P1", n, seed=15)
        swept = {e.name: e.payoff for e in rep.entries}
        direct = estimate_payoff(
            sim_profile, n, deviator=("P1", QuitAtBlock(3)), seed=99
        )
        assert abs(swept["quit-at-block:3"] - direct.mean[0]) <= 2.0 * direct.half_width

    def test_deviation_report_structure(self, sim_profile):
        rep = deviation_gain(
            sim_profile, "P1", 2000, seed=5,
            family=[QuitAtBlock(1), ConstantContinue("b"), StallLottery()],
        )
        assert [e.name for e in rep.entries] == [
            "quit-at-block:1", "constant-continue:b", "stall-lottery",
        ]
        # before block 1 nothing has happened: the estimate is the
        # exact payoff of quitting alone against x'
        assert rep.entries[0].payoff == pytest.approx(0.55, abs=1e-12)
        assert rep.max_gain == max(e.gain for e in rep.entries)
        assert rep.worst.gain == rep.max_gain
        for e in rep.entries:
            assert e.ci == pytest.approx(2.0 * rep.on_path_ci, abs=1e-15)
        d = rep.as_dict()
        assert d["player"] == "P1"
        assert len(d["entries"]) == 3

    def test_default_family_composition(self, sim_profile):
        rep = deviation_gain(sim_profile, "P3", 500, seed=2)
        names = [e.name for e in rep.entries]
        assert names[0] == "quit-at-block:1"
        assert names[sim_profile.T - 1] == f"quit-at-block:{sim_profile.T}"
        assert "constant-continue:e" in names
        assert "stall-lottery" not in names  # P3 carries no letters
        rep1 = deviation_gain(sim_profile, "P1", 500, seed=2)
        assert "stall-lottery" in [e.name for e in rep1.entries]

    def test_deviation_validation(self, sim_profile):
        with pytest.raises(ValueError, match="unknown player"):
            deviation_gain(sim_profile, "P9", 10)
        with pytest.raises(ValueError, match="positive"):
            deviation_gain(sim_profile, "P1", 0)
        with pytest.raises(ValueError, match="positive"):
            estimate_payoff(sim_profile, 0)

    def test_one_lottery_call_per_round(self, sim_profile, monkeypatch):
        # one stationary law: every round shares one call, and about 90%
        # of the candidates quit, so a few rounds finish every run
        calls = []
        real = jcl.game.simulate_strong
        monkeypatch.setattr(
            jcl.game, "simulate_strong", lambda *a, **k: calls.append(a[3]) or real(*a, **k),
        )
        sim = simulate_block_profile(sim_profile, 4000, seed=8)
        assert 1 <= len(calls) <= 10
        assert sum(calls) < 1.2 * np.count_nonzero(sim.block >= 0)

    def test_same_seed_gives_equal_arrays(self, sim_profile):
        a = simulate_block_profile(sim_profile, 300, seed=11, context=("t",))
        b = simulate_block_profile(sim_profile, 300, seed=11, context=("t",))
        for name in ("block", "quitter", "payoff"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_quit_at_block_one_absorbs_before_any_lottery(self, sim_profile, monkeypatch):
        monkeypatch.setattr(jcl.game, "simulate_strong", _no_lottery)
        sim = simulate_block_profile(sim_profile, 200, deviator=("P2", QuitAtBlock(1)), seed=3)
        assert np.all(sim.block == 1) and np.all(sim.quitter == 1)
        # P2 quits alone against x', whose pure P3 mixing always plays e
        assert {tuple(u) for u in sim.payoff} <= {
            tuple(sim_profile.game.payoff((a, QUIT, "e"))) for a in ("a", "b")
        }

    def test_deviator_validation(self, sim_profile):
        for deviator, message in [
            (("P9", QuitAtBlock(1)), "unknown deviating player"),
            (("P1", QuitAtBlock(9999)), "exceeds the horizon"),
            (("P1", ConstantContinue("zzz")), "not a continue action"),
            (("P3", StallLottery()), "carries no lottery letters"),
        ]:
            with pytest.raises(ValueError, match=message):
                simulate_block_profile(sim_profile, 10, deviator=deviator)

    def test_deviation_family_is_validated_before_any_simulation(self, sim_profile, monkeypatch):
        # a quit-at-block entry is scored from the on-path run, so it
        # must be checked before that run, like every other entry
        monkeypatch.setattr(jcl.game, "simulate_block_profile", _no_lottery)
        for family, message in [
            ([QuitAtBlock(1), QuitAtBlock(9999)], "exceeds the horizon"),
            ([ConstantContinue("zzz")], "not a continue action"),
            ([StallLottery()], "carries no lottery letters"),
        ]:
            with pytest.raises(ValueError, match=message):
                deviation_gain(sim_profile, "P3", 10, family=family)

    def test_zero_runs_allowed_in_batch(self, sim_profile):
        sim = simulate_block_profile(sim_profile, 0, seed=1)
        assert sim.runs == 0 and sim.absorbed_rate == 0.0


@pytest.fixture(scope="module")
def cyclic_profile():
    game, sunspot = cyclic_variant()
    return build_block_profile(game, sunspot, 0.05, seed=0), sunspot


class TestCyclicVariant:
    def test_dirac_designation_needs_no_calibration(self, cyclic_profile):
        prof, _ = cyclic_profile
        assert prof.calibration is None
        assert prof.C == 4.0 / prof.eps_block**2
        assert prof.T == 149

    def test_cyclic_quitter_follows_the_order(self, cyclic_profile):
        prof, _ = cyclic_profile
        sim = simulate_block_profile(prof, 300, seed=3)
        done = sim.block >= 0
        assert done.sum() > 200
        order = np.array([prof.game.players.index(p) for p in ("P1", "P2", "P3")])
        assert np.array_equal(sim.quitter[done], order[(sim.block[done] - 1) % 3])

    def test_estimate_matches_target_and_oracle(self, cyclic_profile):
        prof, sunspot = cyclic_profile
        est = estimate_payoff(prof, 4000, seed=21)
        gamma = oracle_payoff(prof)
        assert np.max(np.abs(est.mean - gamma)) <= est.half_width
        gap = np.max(np.abs(est.mean - sunspot.target_payoff))
        assert gap <= 2 * 0.05 + est.half_width

    def test_absorption_rate(self, cyclic_profile):
        prof, _ = cyclic_profile
        sim = simulate_block_profile(prof, 3000, seed=4)
        expect = 1.0 - 0.98**149
        assert sim.absorbed_rate == pytest.approx(expect, abs=0.02)


def _absorption_law(hazards: np.ndarray) -> np.ndarray:
    """Exact law of the absorption block under per-block hazards: cell
    b-1 is absorption at block b, the last cell is none within them."""
    survive = np.cumprod(np.concatenate([[1.0], 1.0 - hazards]))
    return np.append(survive[:-1] * hazards, survive[-1])


def _law_pvalue(cells: np.ndarray, law: np.ndarray, band: int = 10) -> float:
    """Chi-square p-value of per-run cells against ``law``, with the
    block cells pooled in bands and the last cell kept apart."""
    starts = list(range(0, law.size - 1, band)) + [law.size - 1]
    observed = np.add.reduceat(np.bincount(cells, minlength=law.size), starts)
    expected = np.add.reduceat(law, starts) * cells.size
    return float(chisquare(observed, expected).pvalue)


@pytest.fixture(scope="module")
def never_idle_profile(example):
    # the lottery runs, but it never names NOBODY (whose cell is empty),
    # so the absorption hazard is exactly eta whatever its accuracy
    game, sunspot = example
    nu = ProbabilityVector(OutcomeSet(game.players + (NOBODY,)), [0.5, 0.25, 0.25, 0.0])
    never_idle = replace(sunspot, designation=StationaryDesignation(nu))
    return build_block_profile(game, never_idle, 0.05, C=400.0, seed=0)


class TestAbsorptionLaw:
    def test_on_path_blocks_are_truncated_geometric(self, never_idle_profile):
        prof = never_idle_profile
        sim = simulate_block_profile(prof, 40_000, seed=31)
        cells = np.where(sim.block > 0, sim.block - 1, prof.T)
        law = _absorption_law(np.full(prof.T, 0.02))
        assert _law_pvalue(cells, law) >= 1e-3

    def test_quit_at_block_absorbs_the_rest_at_its_block(self, never_idle_profile):
        prof = never_idle_profile
        k = 60
        sim = simulate_block_profile(
            prof, 40_000, deviator=("P3", QuitAtBlock(k)), seed=32,
        )
        assert np.all((sim.block >= 1) & (sim.block <= k))
        assert np.all(sim.quitter[sim.block == k] == 2)
        law = _absorption_law(np.full(k - 1, 0.02))
        assert _law_pvalue(sim.block - 1, law) >= 1e-3

    def test_thinned_quits_follow_per_player_eta(self, cyclic_profile):
        # Dirac blocks with eta below its maximum for two of the three
        # players: candidates are thinned by eta_t(j) / eta_max
        prof, _ = cyclic_profile
        rates = {"P1": 0.03, "P2": 0.01, "P3": 0.02}
        prof = replace(prof, sunspot=replace(prof.sunspot, eta=lambda t, p: rates[p]))
        sim = simulate_block_profile(prof, 40_000, seed=33)
        cells = np.where(sim.block > 0, sim.block - 1, prof.T)
        hazards = np.array([rates[("P1", "P2", "P3")[t % 3]] for t in range(prof.T)])
        assert _law_pvalue(cells, _absorption_law(hazards)) >= 1e-3

    def test_late_bad_eta_fails_before_any_lottery(self, sim_profile, monkeypatch):
        monkeypatch.setattr(jcl.game, "simulate_strong", _no_lottery)
        late = replace(sim_profile, sunspot=replace(
            sim_profile.sunspot, eta=lambda t, p: 0.02 if t < 150 else 1.5,
        ))
        with pytest.raises(ValueError, match=r"got 1.5 at block 150"):
            simulate_block_profile(late, 100, seed=1)

    def test_late_outcome_set_switch_fails_before_any_lottery(self, sim_profile, monkeypatch):
        monkeypatch.setattr(jcl.game, "simulate_strong", _no_lottery)
        nu = sim_profile.sunspot.designation.probs(0)
        swapped = ProbabilityVector(OutcomeSet(nu.outcomes.labels[::-1]), nu.mass[::-1])

        class LateSwitch:
            def probs(self, t):
                return nu if t < 150 else swapped

        late = replace(sim_profile, sunspot=replace(sim_profile.sunspot, designation=LateSwitch()))
        for run in (lambda: simulate_block_profile(late, 100, seed=1), lambda: oracle_payoff(late)):
            with pytest.raises(ValueError, match="designation at block 150 switched outcome sets"):
                run()

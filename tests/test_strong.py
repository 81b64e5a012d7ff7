"""Bounded lottery: score table, partition, engines, calibration."""

import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency, ks_2samp

from jcl import (
    ALPHA,
    BETA,
    BinaryCoinPair,
    Constant,
    Honest,
    IntervalPartition,
    ProbabilityVector,
    Push,
    ScoreTable,
    Stall,
    calibrate_C,
    default_suite,
    hoeffding_margin,
    normal_cdf,
    normal_quantile,
    run_strong,
    simulate_strong,
)

COINS = BinaryCoinPair(0.3, 0.7)
GAME_COINS = BinaryCoinPair(0.6, 0.5)   # the example quitting game's coins
SKEW_COINS = BinaryCoinPair(0.95, 0.5)
NU3 = ProbabilityVector.from_dict({"a": 0.2, "b": 0.3, "c": 0.5})


def same_outcome_law_p(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample chi-square p-value over the outcome cells either hit."""
    table = np.array([np.bincount(a, minlength=3), np.bincount(b, minlength=3)])
    table = table[:, table.sum(axis=0) > 0]
    return 1.0 if table.shape[1] < 2 else float(chi2_contingency(table)[1])


class TestScoreTable:
    def test_frozen_values(self):
        t = ScoreTable.from_coins(COINS)
        expect = np.array([[-0.21, 0.49], [0.09, -0.21]])
        assert np.allclose(t.values, expect, atol=1e-12)

    def test_zero_mean_rows_and_columns_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            p1, p2 = rng.uniform(0.01, 0.99, size=2)
            t = ScoreTable.from_coins(BinaryCoinPair(p1, p2))
            s1 = np.array([p1, 1 - p1])
            s2 = np.array([p2, 1 - p2])
            assert np.max(np.abs(t.values @ s2)) <= 1e-12
            assert np.max(np.abs(s1 @ t.values)) <= 1e-12

    def test_tampered_table_rejected(self):
        t = ScoreTable.from_coins(COINS)
        bad = t.values.copy()
        bad[0, 0] += 1e-6
        with pytest.raises(ValueError, match="zero-mean"):
            ScoreTable(COINS, bad)._check_zero_mean()

    def test_min_abs_is_smallest_pair_probability(self):
        # every entry is a product of one letter probability per device
        t = ScoreTable.from_coins(COINS)
        assert t.min_abs == COINS.c1
        assert t.min_abs == pytest.approx(0.09, abs=1e-12)
        assert t.max_abs == pytest.approx(0.49, abs=1e-12)

    def test_honest_second_moment(self):
        t = ScoreTable.from_coins(COINS)
        assert t.honest_second_moment() == pytest.approx(0.0441, abs=1e-9)

    def test_stall_and_rush_letters(self):
        t = ScoreTable.from_coins(COINS)
        assert t.stall_letter(1) == BETA
        assert t.stall_letter(2) == ALPHA
        assert t.rush_letter(1) == ALPHA
        assert t.rush_letter(2) == BETA

    def test_stage_cap_vs_published_bound(self):
        # the published bound uses the letter floor c0 alone and is
        # never tighter than the cap computed from the actual table
        c = BinaryCoinPair(0.3, 0.5)
        t = ScoreTable.from_coins(c)
        assert t.stage_cap(100.0) == math.ceil(100.0 / 0.15**2)
        assert t.stage_cap(100.0) <= math.ceil(100.0 / c.c0**4)


class TestIntervalPartition:
    def test_uniform_four_breakpoints(self):
        pv = ProbabilityVector.from_dict({k: 0.25 for k in "abcd"})
        part = IntervalPartition(pv)
        assert part.breakpoints[0] == -math.inf
        assert part.breakpoints[-1] == math.inf
        assert part.breakpoints[1] == pytest.approx(-0.67448975, abs=1e-6)
        assert part.breakpoints[2] == pytest.approx(0.0, abs=1e-10)
        assert part.breakpoints[3] == pytest.approx(0.67448975, abs=1e-6)

    def test_boundary_belongs_to_left_cell(self):
        pv = ProbabilityVector.from_dict({k: 0.25 for k in "abcd"})
        part = IntervalPartition(pv)
        assert part.index_of(0.0) == 1
        assert part.index_of(1e-12) == 2
        assert part.index_of(float(part.breakpoints[1])) == 0

    def test_cell_masses_match_target(self):
        part = IntervalPartition(NU3)
        for j in range(NU3.outcomes.size):
            mass = normal_cdf(float(part.breakpoints[j + 1])) - normal_cdf(
                float(part.breakpoints[j])
            )
            assert mass == pytest.approx(NU3.mass[j], abs=1e-8)

    def test_zero_mass_cell_is_unreachable(self):
        pv = ProbabilityVector.from_dict({"a": 0.5, "b": 0.0, "c": 0.5})
        part = IntervalPartition(pv)
        zs = np.linspace(-5, 5, 10001)
        idx = part.indices_of(zs)
        assert set(np.unique(idx)) == {0, 2}

    def test_aim_points_sit_inside_their_cells(self):
        part = IntervalPartition(NU3)
        for j in range(3):
            z = part.aim(j)
            assert part.index_of(z) == j
        pv = ProbabilityVector.from_dict({k: 0.25 for k in "abcd"})
        assert IntervalPartition(pv).aim(0) == pytest.approx(
            normal_quantile(0.125), abs=1e-12
        )

    def test_labels_and_alias(self):
        part = IntervalPartition(NU3)
        assert part.label_of(-10.0) == "a"
        assert part.label_of(10.0) == "c"
        assert part.label_of(0.0) in ("a", "b")


class TestRunStrong:
    def test_deterministic_replay(self):
        r1 = run_strong(COINS, NU3, 50.0, seed=11, context=("x",))
        r2 = run_strong(COINS, NU3, 50.0, seed=11, context=("x",))
        assert r1.outcome == r2.outcome
        assert r1.stages == r2.stages
        assert r1.z == r2.z
        assert r1.transcript.stages == r2.transcript.stages

    def test_transcript_length(self):
        r = run_strong(COINS, NU3, 30.0, seed=3)
        assert len(r.transcript.stages) == r.stages
        assert r.transcript.terminal == r.outcome

    def test_tiny_budget_stops_after_one_stage(self):
        # every squared increment is at least min_abs^2 = 0.0081
        for seed in range(20):
            r = run_strong(COINS, NU3, 0.008, seed=seed)
            assert r.stages == 1

    def test_sum_consistency(self):
        r = run_strong(COINS, NU3, 40.0, seed=5)
        assert r.sum_y2 >= 40.0
        assert r.z == pytest.approx(r.sum_y / math.sqrt(40.0), abs=1e-15)
        t = ScoreTable.from_coins(COINS)
        total = sum(t.score(a1, a2) for a1, a2 in r.transcript.stages)
        assert total == pytest.approx(r.sum_y, abs=1e-9)

    def test_respects_hard_cap_under_all_suite_adversaries(self):
        t = ScoreTable.from_coins(COINS)
        cap = t.stage_cap(12.0) + 2
        for spec in default_suite(NU3.outcomes.labels):
            for dev in (1, 2):
                args = {"adversary": spec} if dev == 1 else {"adversary": spec, "adversary_device": 2}
                r = run_strong(COINS, NU3, 12.0, seed=1, **args)
                assert r.stages <= cap

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="positive"):
            run_strong(COINS, NU3, 0.0)

    def test_rejects_non_spec_adversary(self):
        with pytest.raises(TypeError, match="adversary spec"):
            run_strong(COINS, NU3, 5.0, adversary=object())


class TestSimulateStrong:
    def test_deterministic_and_shapes(self):
        b1 = simulate_strong(COINS, NU3, 25.0, 500, seed=9, context=("s",))
        b2 = simulate_strong(COINS, NU3, 25.0, 500, seed=9, context=("s",))
        assert np.array_equal(b1.outcome_idx, b2.outcome_idx)
        assert np.array_equal(b1.stages, b2.stages)
        assert np.array_equal(b1.z, b2.z)
        assert b1.runs == 500
        assert b1.stages.min() >= 1

    def test_zero_runs(self):
        b = simulate_strong(COINS, NU3, 25.0, 0, seed=1)
        assert b.runs == 0
        assert b.empirical is not None
        assert b.outcome_idx.size == 0

    def test_tiny_budget_batch(self):
        b = simulate_strong(COINS, NU3, 0.008, 200, seed=4)
        assert np.all(b.stages == 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            simulate_strong(COINS, NU3, -1.0, 10)
        with pytest.raises(ValueError, match="nonnegative"):
            simulate_strong(COINS, NU3, 1.0, -1)
        with pytest.raises(ValueError, match="device"):
            simulate_strong(COINS, NU3, 1.0, 10, adversary=Stall(), adversary_device=3)
        with pytest.raises(ValueError, match="m_cap"):
            simulate_strong(COINS, NU3, 1.0, 10, m_cap=0)

        class Fixed:
            def prob_alpha(self, ctx):
                return 0.5

        with pytest.raises(TypeError, match="adversary spec"):
            simulate_strong(COINS, NU3, 1.0, 10, adversary=Fixed())

    @pytest.mark.parametrize(
        "coins,C,attack,dev",
        [
            pytest.param(COINS, 10.0, Honest(), 1, id="honest"),
            pytest.param(COINS, 10.0, Constant(BETA), 1, id="constant-beta"),
            pytest.param(COINS, 10.0, Stall(), 2, id="stall-d2"),
            pytest.param(COINS, 10.0, Push("a"), 1, id="push-a"),
            pytest.param(COINS, 10.0, Push("c"), 2, id="push-c-d2"),
            pytest.param(GAME_COINS, 10.0, Honest(), 1, id="game-honest"),
            pytest.param(GAME_COINS, 10.0, Stall(), 1, id="game-stall"),
            pytest.param(GAME_COINS, 10.0, Constant(ALPHA), 2, id="game-constant-alpha-d2"),
            pytest.param(GAME_COINS, 10.0, Push("b"), 1, id="game-push-b"),
            pytest.param(SKEW_COINS, 3.0, Honest(), 1, id="skew-honest"),
            pytest.param(SKEW_COINS, 3.0, Stall(), 2, id="skew-stall-d2"),
            pytest.param(SKEW_COINS, 3.0, Constant(BETA), 1, id="skew-constant-beta"),
            pytest.param(SKEW_COINS, 3.0, Push("c"), 2, id="skew-push-c-d2"),
        ],
    )
    def test_block_jumps_match_stepwise_law(self, coins, C, attack, dev):
        # m_cap=1 forces one stage per draw; the block engine must
        # produce the same outcome and stage-count laws
        n = 4000
        fast = simulate_strong(
            coins, NU3, C, n, adversary=attack, adversary_device=dev, seed=21
        )
        slow = simulate_strong(
            coins, NU3, C, n, adversary=attack, adversary_device=dev, seed=22, m_cap=1
        )
        gap = float(np.max(np.abs(fast.empirical().freq() - slow.empirical().freq())))
        assert gap <= 3.0 * hoeffding_margin(n, 3, 0.01)
        mu_f, mu_s = fast.stages.mean(), slow.stages.mean()
        sd = max(fast.stages.std(), slow.stages.std(), 1.0)
        assert abs(mu_f - mu_s) <= 6.0 * sd / math.sqrt(n)
        # whole laws, not only means: outcome cells by two-sample
        # chi-square, stopping stages by two-sample Kolmogorov-Smirnov
        assert same_outcome_law_p(fast.outcome_idx, slow.outcome_idx) >= 1e-3
        assert ks_2samp(fast.stages, slow.stages).pvalue >= 1e-3

    def test_batch_agrees_with_sequential_runner(self):
        n = 300
        C = 10.0
        seq_stages = []
        seq_idx = []
        for i in range(n):
            r = run_strong(
                COINS, NU3, C, adversary=Push("a"), seed=31, context=("q", i)
            )
            seq_stages.append(r.stages)
            seq_idx.append(r.outcome_index)
        batch = simulate_strong(
            COINS, NU3, C, n, adversary=Push("a"), adversary_device=1, seed=77
        )
        mu_b, mu_s = batch.stages.mean(), float(np.mean(seq_stages))
        sd = max(batch.stages.std(), float(np.std(seq_stages)), 1.0)
        assert abs(mu_b - mu_s) <= 6.0 * sd * math.sqrt(2.0 / n)
        e_seq = np.bincount(seq_idx, minlength=3) / n
        e_bat = np.bincount(batch.outcome_idx, minlength=3) / n
        assert np.max(np.abs(e_seq - e_bat)) <= 3.0 * hoeffding_margin(n, 3, 0.01)

    def test_fair_coins_uniform_two_label_frequencies(self):
        coins = BinaryCoinPair(0.5, 0.5)
        pv = ProbabilityVector.from_dict({"h": 0.5, "t": 0.5})
        b = simulate_strong(coins, pv, 400.0, 100_000, seed=13)
        freq = b.empirical().freq()
        assert np.max(np.abs(freq - 0.5)) <= 0.01

    def test_stages_scale_with_budget(self):
        small = simulate_strong(COINS, NU3, 10.0, 2000, seed=1)
        big = simulate_strong(COINS, NU3, 40.0, 2000, seed=1)
        # honest clock advances 0.0441 per stage on average
        assert small.stages.mean() == pytest.approx(10.0 / 0.0441, rel=0.05)
        assert big.stages.mean() == pytest.approx(40.0 / 0.0441, rel=0.05)


class TestOneClock:
    """Every engine stops by the same pair-count clock."""

    @pytest.mark.parametrize("C,expect", [(30.0, 750), (12.0, 300)])
    def test_stall_stops_at_one_stage_on_every_path(self, C, expect):
        # stalling device 1 at coins 0.6/0.5 makes every |w| equal 0.2,
        # so the stopping stage is a constant that no path may move
        kw = {"adversary": Stall(), "adversary_device": 1, "seed": 3}
        block = simulate_strong(GAME_COINS, NU3, C, 200, **kw)
        step = simulate_strong(GAME_COINS, NU3, C, 200, m_cap=1, **kw)
        seq = [
            run_strong(GAME_COINS, NU3, C, adversary=Stall(), seed=3, context=("c", i)).stages
            for i in range(10)
        ]
        assert set(block.stages) == set(step.stages) == set(seq) == {expect}

    @pytest.mark.parametrize("C,expect", [(100.0, 1600), (100.03, 1601)])
    def test_fair_coins_stop_on_the_exact_stage(self, C, expect):
        # at coins 0.5/0.5 every squared score is 1/16, exactly
        coins = BinaryCoinPair(0.5, 0.5)
        for spec in default_suite(NU3.outcomes.labels):
            for dev in (1, 2):
                b = simulate_strong(coins, NU3, C, 100, adversary=spec, adversary_device=dev, seed=4)
                assert set(b.stages) == {expect}, (spec.name, dev)


class TestCalibrate:
    def test_huge_epsilon_accepts_first_probe(self):
        # threshold >= 1 dominates any possible distance
        res = calibrate_C(COINS, NU3, 2.0, runs_per_probe=200, seed=3)
        assert res.accepted
        assert res.C == res.C0 == 1.0
        assert all(p.passed for p in res.probes)

    def test_epsilon_one_accepts_first_probe(self):
        coins = BinaryCoinPair(0.5, 0.5)
        pv = ProbabilityVector.from_dict({"h": 0.5, "t": 0.5})
        res = calibrate_C(coins, pv, 1.0, runs_per_probe=2000, seed=3)
        assert res.accepted
        assert res.C == res.C0

    def test_dirac_target_accepts_minimal_budget(self):
        pv = ProbabilityVector.from_dict({"a": 1.0, "b": 0.0})
        res = calibrate_C(COINS, pv, 0.05, runs_per_probe=500, seed=5)
        assert res.accepted
        assert res.C == res.C0
        assert res.probes[0].linf == 0.0

    def test_failure_is_explicit(self, monkeypatch):
        # force every probe to miss its threshold so the exhausted
        # schedule reports failure loudly instead of returning a C
        import jcl.strong as strong_mod

        monkeypatch.setattr(strong_mod, "linf_distance", lambda e, t: 1.0)
        res = calibrate_C(COINS, NU3, 0.05, runs_per_probe=10, max_doublings=2, seed=1)
        assert not res.accepted
        assert res.C is None
        assert len(res.probes) == 3 * 13
        assert all(not p.passed for p in res.probes)

    def test_report_shape(self):
        res = calibrate_C(COINS, NU3, 2.0, runs_per_probe=100, seed=1)
        d = res.as_dict()
        assert set(d) == {"epsilon", "C0", "C", "accepted", "runs_per_probe", "probes"}
        probe = d["probes"][0]
        assert set(probe) == {
            "C", "adversary", "device", "linf", "threshold", "passed", "runs",
        }
        # honest probe runs on one device, every attack on both
        names = [p.adversary for p in res.probes]
        assert names.count("honest") == 1
        assert names.count("stall") == 2

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError, match="positive"):
            calibrate_C(COINS, NU3, 0.0)

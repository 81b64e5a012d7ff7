"""Detecting lottery: successor maps, martingale law, fault blame."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, ks_2samp

from jcl import (
    ALPHA,
    BETA,
    BinaryCoinPair,
    Constant,
    ProbabilityVector,
    Push,
    Stall,
    Transcript,
    default_max_stages,
    default_suite,
    detect_fault,
    hoeffding_margin,
    linf_distance,
    run_weak,
    simulate_weak,
)
from jcl.strong import ScoreTable
from jcl.weak import _jump_plan, _shrink_letter, _successor_arrays, _WeakPolicy

COINS = BinaryCoinPair(0.3, 0.7)
SKEW_COINS = BinaryCoinPair(0.95, 0.5)
LAM2 = ProbabilityVector.from_dict({"x": 0.2, "y": 0.8})
NU3 = ProbabilityVector.from_dict({"a": 0.2, "b": 0.3, "c": 0.5})


def successor(lam, coins):
    """One belief's successor rule and its four successors, in pair
    order (aa, ab, ba, bb)."""
    succ = _successor_arrays(np.repeat(lam[None], 4, axis=0), ScoreTable.from_coins(coins).flat)
    return succ, succ.rows(np.arange(4))


class TestSuccessor:
    def test_decided_needs_exactly_one_positive(self):
        # decided means exactly one strictly positive coordinate, so a
        # Dirac target stops at stage 0 and a 1e-300 coordinate still steps
        for lam in ([0.0, 1.0], ProbabilityVector.dirac(LAM2.outcomes, "x").mass):
            target = ProbabilityVector(LAM2.outcomes, lam)
            r = run_weak(COINS, target, max_stages=20, record=False)
            batch = simulate_weak(COINS, target, 3, max_stages=20)
            assert r.stages == 0 and r.outcome_index == int(np.argmax(lam))
            assert np.all(batch.stages == 0)
            assert np.all(batch.outcome_idx == int(np.argmax(lam)))
        tiny = ProbabilityVector(LAM2.outcomes, [1e-300, 1.0 - 1e-300])
        assert run_weak(COINS, tiny, max_stages=20, record=False).stages >= 1
        assert np.all(simulate_weak(COINS, tiny, 3, max_stages=20).stages >= 1)

    def test_frozen_two_label_map(self):
        m, d = successor(LAM2.mass, COINS)
        assert m.s[0] == pytest.approx(20.0 / 49.0, abs=1e-12)
        assert m.binding[0] == 1  # device 1 alpha, device 2 beta
        assert m.j_plus[0] == 1 and m.j_minus[0] == 0
        assert _shrink_letter(m.binding[0], 1) == ALPHA
        assert _shrink_letter(m.binding[0], 2) == BETA
        assert np.allclose(d[0], [2 / 7, 5 / 7], atol=1e-12)
        assert np.allclose(d[1], [0.0, 1.0], atol=1e-12)
        assert np.allclose(d[2], [8 / 49, 41 / 49], atol=1e-12)
        assert np.allclose(d[3], [2 / 7, 5 / 7], atol=1e-12)

    def test_binding_coordinate_is_exact_zero(self):
        _, d = successor(LAM2.mass, COINS)
        assert d[1, 0] == 0.0
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam = rng.dirichlet(np.ones(4))
            m, d = successor(lam, COINS)
            # the pair attaining s* zeroes whichever coordinate bound it
            w = [-0.21, 0.49, 0.09, -0.21]
            b = m.binding[0]
            coord = m.j_minus[0] if w[b] > 0 else m.j_plus[0]
            assert d[b, coord] == 0.0

    def test_tie_breaks_take_first_index(self):
        m, _ = successor(np.array([1 / 3, 1 / 3, 1 / 3]), COINS)
        assert m.j_plus[0] == 0
        assert m.j_minus[0] == 1

    def test_zero_coordinates_never_revive(self):
        lam = np.array([0.0, 0.3, 0.7])
        _, d = successor(lam, COINS)
        assert all(d[k][0] == 0.0 for k in range(4))

    def test_unnormalized_belief_rejected(self):
        with pytest.raises(AssertionError, match="mass drifted"):
            successor(np.array([0.5, 0.2]), COINS)

    def test_float_floor_raises_instead_of_deciding(self):
        # at these coins pair ba keeps 0.816 of lam_minus: from 2.5e-308
        # that is below the smallest normal float, with no binding hit
        with pytest.raises(FloatingPointError, match="float floor"):
            successor(np.array([2.5e-308, 1.0 - 2.5e-308]), COINS)
        with pytest.raises(FloatingPointError, match="float floor"):
            successor(np.array([1e-310, 1.0]), COINS)
        _, d = successor(np.array([1e-300, 1.0 - 1e-300]), COINS)
        assert d[1, 0] == 0.0  # the binding hit still zeroes

    def test_shrink_letter_validates_device(self):
        m, _ = successor(LAM2.mass, COINS)
        with pytest.raises(ValueError, match="device"):
            _shrink_letter(m.binding[0], 3)


class TestMartingale:
    def test_one_honest_device_keeps_belief_a_martingale(self):
        # row / column zero-mean transfers to the belief update: fixing
        # either device's letter, the honest other device averages the
        # successors back to the current belief
        rng = np.random.default_rng(11)
        for _ in range(200):
            J = int(rng.choice([2, 3, 5]))
            lam = rng.dirichlet(np.ones(J))
            p1, p2 = rng.uniform(0.05, 0.95, size=2)
            coins = BinaryCoinPair(p1, p2)
            _, d = successor(lam, coins)
            s2 = np.array([p2, 1 - p2])
            s1 = np.array([p1, 1 - p1])
            for a1 in (ALPHA, BETA):
                avg = s2[0] * d[2 * a1] + s2[1] * d[2 * a1 + 1]
                assert np.max(np.abs(avg - lam)) <= 1e-9
            for a2 in (ALPHA, BETA):
                avg = s1[0] * d[a2] + s1[1] * d[2 + a2]
                assert np.max(np.abs(avg - lam)) <= 1e-9

    def test_support_never_grows(self):
        rng = np.random.default_rng(5)
        lam = rng.dirichlet(np.ones(5))
        coins = BinaryCoinPair(0.4, 0.6)
        for t in range(400):
            if np.count_nonzero(lam > 0.0) <= 1:
                break
            _, d = successor(lam, coins)
            before = lam > 0.0
            a1 = ALPHA if rng.random() < 0.4 else BETA
            a2 = ALPHA if rng.random() < 0.6 else BETA
            lam = d[2 * a1 + a2]
            assert not np.any((lam > 0.0) & ~before)


class TestRunWeak:
    def test_deterministic_replay(self):
        r1 = run_weak(COINS, LAM2, seed=4, context=("w",))
        r2 = run_weak(COINS, LAM2, seed=4, context=("w",))
        assert r1.outcome == r2.outcome
        assert r1.stages == r2.stages
        assert r1.transcript.stages == r2.transcript.stages
        assert r1.verdict == r2.verdict

    def test_honest_run_terminates_with_verdict_none(self):
        r = run_weak(COINS, LAM2, seed=1)
        assert r.outcome in ("x", "y")
        assert r.outcome_index >= 0
        assert r.verdict.verdict == "none"
        assert len(r.transcript.stages) == r.stages
        assert r.transcript.terminal == r.outcome

    def test_record_opt_out(self):
        r = run_weak(COINS, LAM2, seed=1, record=False)
        assert r.transcript is None and r.verdict is None

    def test_dirac_target_decides_immediately(self):
        pv = ProbabilityVector.from_dict({"x": 1.0, "y": 0.0})
        r = run_weak(COINS, pv, seed=0)
        assert r.stages == 0
        assert r.outcome == "x"

    def test_zero_budget_times_out(self):
        r = run_weak(COINS, LAM2, seed=0, max_stages=0)
        assert r.outcome is None
        assert r.outcome_index == -1
        assert r.verdict.verdict == "inconclusive"
        with pytest.raises(ValueError, match="max_stages"):
            run_weak(COINS, LAM2, max_stages=-1)

    def test_stalling_device_is_blamed_from_the_transcript(self):
        r = run_weak(
            COINS, LAM2, adversary=Stall(), seed=2, max_stages=1500, window=1000
        )
        assert r.outcome is None
        assert r.verdict.verdict == "device1_faulty"
        assert r.verdict.match_rate1 == 0.0
        assert r.verdict.match_rate2 > 0.2
        r = run_weak(
            COINS, LAM2, adversary=Stall(), adversary_device=2, seed=2, max_stages=1500,
            window=1000
        )
        assert r.verdict.verdict == "device2_faulty"

    def test_fair_coins_decide_in_one_stage(self):
        coins = BinaryCoinPair(0.5, 0.5)
        pv = ProbabilityVector.from_dict({"h": 0.5, "t": 0.5})
        for seed in range(10):
            r = run_weak(coins, pv, seed=seed)
            assert r.stages == 1
            a1, a2, _, _ = r.transcript.stages[0]
            assert r.outcome == ("h" if a1 != a2 else "t")


class TestDetect:
    def _transcript(self, n, rate1, rate2, terminal=None, rng=None):
        rng = rng or np.random.default_rng(0)
        rows = []
        for _ in range(n):
            s1, s2 = ALPHA, BETA
            a1 = s1 if rng.random() < rate1 else 1 - s1
            a2 = s2 if rng.random() < rate2 else 1 - s2
            rows.append((a1, a2, s1, s2))
        return Transcript(stages=rows, terminal=terminal)

    def test_terminated_runs_are_never_blamed(self):
        t = self._transcript(1200, 0.0, 0.5, terminal="x")
        assert detect_fault(t, COINS).verdict == "none"

    def test_short_window_is_inconclusive(self):
        t = self._transcript(300, 0.0, 0.5)
        v = detect_fault(t, COINS, window=1000)
        assert v.verdict == "inconclusive"
        assert v.window_stages == 300

    def test_blames_the_avoiding_device(self):
        t = self._transcript(2000, 0.02, 0.5)
        v = detect_fault(t, COINS)
        assert v.verdict == "device1_faulty"
        assert v.match_rate1 < 0.1 and v.match_rate2 > 0.2
        t = self._transcript(2000, 0.5, 0.02)
        assert detect_fault(t, COINS).verdict == "device2_faulty"

    def test_two_low_rates_stay_inconclusive(self):
        # blame needs a clear single culprit with an honest partner
        t = self._transcript(2000, 0.02, 0.05)
        assert detect_fault(t, COINS).verdict == "inconclusive"

    def test_threshold_validation(self):
        t = self._transcript(10, 0.5, 0.5)
        with pytest.raises(ValueError, match="faulty_below"):
            detect_fault(t, COINS, faulty_below=0.3, honest_above=0.2)
        with pytest.raises(ValueError, match="window"):
            detect_fault(t, COINS, window=0)
        with pytest.raises(TypeError, match="BinaryCoinPair"):
            detect_fault(t, (0.3, 0.7))

    def test_rates_use_only_the_trailing_window(self):
        head = self._transcript(1000, 1.0, 1.0).stages
        tail = self._transcript(1000, 0.0, 0.5).stages
        t = Transcript(stages=head + tail, terminal=None)
        v = detect_fault(t, COINS, window=1000)
        assert v.match_rate1 == 0.0
        assert v.verdict == "device1_faulty"


class TestSimulateWeak:
    def test_budget_default_value(self):
        assert default_max_stages(COINS, LAM2) == 103
        assert default_max_stages(COINS, LAM2) == math.ceil(
            2 * math.log(100.0) / COINS.c1
        )

    def test_honest_law_matches_target(self):
        n = 20_000
        b = simulate_weak(COINS, LAM2, n, seed=8)
        assert b.runs == n
        assert b.timeout_rate <= 0.01
        gap = linf_distance(b.empirical(), LAM2)
        assert gap <= 3.0 * hoeffding_margin(n, 2, 0.01)

    def test_deterministic(self):
        b1 = simulate_weak(COINS, LAM2, 500, seed=3, context=("d",))
        b2 = simulate_weak(COINS, LAM2, 500, seed=3, context=("d",))
        assert np.array_equal(b1.outcome_idx, b2.outcome_idx)
        assert np.array_equal(b1.stages, b2.stages)

    def test_batch_agrees_with_sequential_runner(self):
        n = 400
        seq = [run_weak(COINS, LAM2, seed=10, record=False, context=("p", i)) for i in range(n)]
        bat = simulate_weak(COINS, LAM2, n, seed=99)
        f_seq = np.bincount([r.outcome_index for r in seq if r.outcome_index >= 0], minlength=2) / n
        f_bat = np.bincount(bat.outcome_idx[bat.outcome_idx >= 0], minlength=2) / n
        assert np.max(np.abs(f_seq - f_bat)) <= 3.0 * hoeffding_margin(n, 2, 0.01)
        mu_s = float(np.mean([r.stages for r in seq]))
        mu_b = float(bat.stages.mean())
        sd = max(float(bat.stages.std()), 1.0)
        assert abs(mu_s - mu_b) <= 6.0 * sd * math.sqrt(2.0 / n)

    def test_stall_times_out_and_is_blamed(self):
        for dev in (1, 2):
            b = simulate_weak(
                COINS, LAM2, 200, adversary=Stall(), adversary_device=dev,
                seed=6, max_stages=2000, window=1000,
            )
            assert b.timeout_rate == 1.0
            v = b.verdicts()
            assert v == [f"device{dev}_faulty"] * 200

    def test_constant_beta_on_device_one_never_terminates(self):
        # the binding pair at these coins always asks device 1 for
        # alpha, so a constant beta device stalls every run
        b = simulate_weak(
            COINS, LAM2, 100, adversary=Constant(BETA), adversary_device=1, seed=2
        )
        assert b.timeout_rate == 1.0

    def test_honest_runs_are_never_blamed(self):
        b = simulate_weak(COINS, LAM2, 2000, seed=14, max_stages=2000, window=1000)
        v = b.verdicts()
        assert "device1_faulty" not in v and "device2_faulty" not in v
        assert v.count("none") == int(round((1.0 - b.timeout_rate) * 2000))

    def test_absorption_never_exceeds_target_for_suite_attacks(self):
        # the decided-outcome bound is over all runs: timeouts absorb
        # nowhere, so each label's absorption frequency stays below its
        # target mass up to sampling noise
        n = 20_000
        bound = 2.0 * hoeffding_margin(n, 2, 0.01)
        for spec in default_suite(LAM2.outcomes.labels):
            for dev in (1, 2):
                b = simulate_weak(
                    COINS, LAM2, n, adversary=spec, adversary_device=dev,
                    seed=17, context=(spec.name, dev),
                )
                counts = np.bincount(b.outcome_idx[b.outcome_idx >= 0], minlength=2)
                excess = np.maximum(counts / n - LAM2.mass, 0.0)
                assert float(np.max(excess)) <= bound, (spec.name, dev)

    def test_validation(self):
        with pytest.raises(ValueError, match="runs"):
            simulate_weak(COINS, LAM2, -1)
        with pytest.raises(ValueError, match="device"):
            simulate_weak(COINS, LAM2, 10, adversary=Stall(), adversary_device=0)
        with pytest.raises(ValueError, match="window"):
            simulate_weak(COINS, LAM2, 10, window=0)
        with pytest.raises(ValueError, match="max_stages must be nonnegative"):
            simulate_weak(COINS, LAM2, 10, max_stages=-5)
        with pytest.raises(ValueError, match="faulty_below"):
            simulate_weak(COINS, LAM2, 10, seed=1).verdicts(
                faulty_below=0.5, honest_above=0.4
            )

    def test_push_attack_cannot_inflate_its_target(self):
        n = 20_000
        b = simulate_weak(COINS, LAM2, n, adversary=Push("x"), adversary_device=1, seed=9)
        counts = np.bincount(b.outcome_idx[b.outcome_idx >= 0], minlength=2)
        excess = np.maximum(counts / n - LAM2.mass, 0.0)
        assert float(np.max(excess)) <= 2.0 * hoeffding_margin(n, 2, 0.01)


def _verdict_law_p(a: list[str], b: list[str]) -> float:
    """Two-sample chi-square p-value over the verdicts either batch gave."""
    cells = sorted(set(a) | set(b))
    table = np.array([[v.count(c) for c in cells] for v in (a, b)])
    return 1.0 if len(cells) < 2 else float(chi2_contingency(table)[1])


class TestStallJumps:
    """``simulate_weak`` jumps the frozen phase of stalled runs in exact
    binomial blocks; ``_per_stage=True`` plays every stage."""

    @pytest.mark.parametrize(
        "coins,target,attack,dev",
        [
            pytest.param(COINS, LAM2, Stall(), 1, id="j2-stall-d1"),
            pytest.param(COINS, LAM2, Stall(), 2, id="j2-stall-d2"),
            pytest.param(COINS, NU3, Stall(), 1, id="j3-stall-d1"),
            pytest.param(COINS, NU3, Stall(), 2, id="j3-stall-d2"),
            pytest.param(COINS, LAM2, Constant(BETA), 1, id="j2-constant-beta"),
            pytest.param(SKEW_COINS, NU3, Stall(), 1, id="skew-j3-stall-d1"),
        ],
    )
    def test_jumps_match_per_stage_law(self, coins, target, attack, dev):
        # the window starts at stage 1700, inside the jump blocks, and
        # honest_above at the honest match rate splits the verdicts
        n, window = 400, 300
        kw = dict(adversary=attack, adversary_device=dev, max_stages=2000, window=window)
        fast = simulate_weak(coins, target, n, seed=41, **kw)
        slow = simulate_weak(coins, target, n, seed=42, _per_stage=True, **kw)
        for b in (fast, slow):
            assert b.timeout_rate == 1.0
            assert np.all(b.window_stages == window)
            assert not (b.match1 if dev == 1 else b.match2).any()
        honest = [b.match2 if dev == 1 else b.match1 for b in (fast, slow)]
        assert ks_2samp(*honest).pvalue >= 1e-3
        rate = coins.prob(3 - dev, BETA if dev == 1 else ALPHA)
        verdicts = [b.verdicts(honest_above=rate) for b in (fast, slow)]
        assert _verdict_law_p(*verdicts) >= 1e-3

    def test_jumps_carry_beliefs_past_the_float_floor(self):
        # lam_minus starts a few stages above the smallest normal float:
        # per-stage play meets the floor, jumps keep it as a log
        tiny = ProbabilityVector.from_dict({"x": 3e-308, "y": 1.0 - 3e-308})
        kw = dict(adversary=Stall(), adversary_device=1, max_stages=500, window=100, seed=3)
        with pytest.raises(FloatingPointError, match="float floor"):
            simulate_weak(COINS, tiny, 20, _per_stage=True, **kw)
        b = simulate_weak(COINS, tiny, 20, **kw)
        assert b.timeout_rate == 1.0
        assert b.verdicts() == ["device1_faulty"] * 20

    def test_million_stage_stall_is_never_decided(self):
        t0 = time.perf_counter()
        b = simulate_weak(
            COINS, NU3, 300, adversary=Stall(), adversary_device=2,
            seed=5, max_stages=1_000_000,
        )
        assert time.perf_counter() - t0 < 10.0
        assert np.all(b.outcome_idx == -1)
        assert np.all(b.stages == 1_000_000)
        assert b.verdicts() == ["device2_faulty"] * 300

    def test_a_small_lam_minus_is_granted_a_jump(self):
        lam = np.array([[1e-6, 1.0 - 1e-6]])
        w = ScoreTable.from_coins(COINS).flat
        succ = _successor_arrays(lam, w)
        pol = _WeakPolicy.bind(Stall(), 1, COINS, LAM2.outcomes)
        m, _, _ = _jump_plan(succ, pol.frozen_letter(succ.binding), 1, w, np.full(1, np.nan))
        assert m[0] >= 16

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        p1=st.floats(0.05, 0.95),
        p2=st.floats(0.05, 0.95),
        weights=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5),
        shrink=st.floats(0.0, 6.0),
        dev=st.sampled_from([1, 2]),
        attack=st.sampled_from([Stall(), Constant(ALPHA), Constant(BETA)]),
    )
    def test_granted_blocks_keep_the_structure(self, p1, p2, weights, shrink, dev, attack):
        coins = BinaryCoinPair(p1, p2)
        lam = np.array(weights)
        lam[0] *= 10.0 ** -shrink
        lam /= lam.sum()
        w = ScoreTable.from_coins(coins).flat
        succ = _successor_arrays(lam[None], w)
        labels = tuple(f"o{j}" for j in range(lam.size))
        target = ProbabilityVector.from_dict(dict(zip(labels, lam)))
        letter = _WeakPolicy.bind(attack, dev, coins, target.outcomes).frozen_letter(succ.binding)
        m, log_f, log_m = _jump_plan(succ, letter, dev, w, np.full(1, np.nan))
        if m[0] < 1:
            return
        jp, jm, b = int(succ.j_plus[0]), int(succ.j_minus[0]), int(succ.binding[0])
        log_f = log_f[0]
        for honest in (int(np.argmax(log_f)), int(np.argmin(log_f))):
            a1, a2 = (letter[0], honest) if dev == 1 else (honest, letter[0])
            stages = int(min(m[0], 200))
            if log_f[honest] > 0.0:
                # a growing path nears t* at its end: start at the exact
                # state of its last 200 stages
                start = log_m[0] + (m[0] - stages) * log_f[honest]
            else:
                # a shrinking one: keep exact lam_minus above 1e-250
                start = log_m[0]
                if log_f[honest] < 0.0:
                    stages = min(stages, int((math.log(1e-250) - start) / -log_f[honest]))
            x = lam.copy()
            x[jm] = math.exp(start)
            x[jp] = lam[jp] + lam[jm] - x[jm]
            for _ in range(stages):
                mp, d = successor(x, coins)
                assert (mp.j_plus[0], mp.j_minus[0], mp.binding[0]) == (jp, jm, b)
                x = d[2 * a1 + a2]
                assert np.all(x > 0.0)

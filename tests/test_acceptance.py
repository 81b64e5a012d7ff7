"""Acceptance gate: one numbered criterion per test, one printed line each.

Run with plain ``pytest``; every test prints a terminal-visible line

    criterion NN PASS|FAIL  <what was measured>  (N.Ns)

even under output capture.  Criterion 2 is expected to FAIL: it checks
the advertised stage bound ceil(C / c0^2), which is not a bound for
this mechanism.  The score increments have magnitude as small as the
smallest table entry, so the tightest uniform stopping bound is
ceil(C / min|w|^2) (plus a float cushion); at general-position coins
even fully honest runs take far longer than ceil(C / c0^2) stages.
The companion criterion 2b verifies the correct bound with zero
violations.  Everything else is expected to PASS.
"""

import math
import time

import numpy as np
import pytest

from jcl import (
    ALPHA,
    BETA,
    BinaryCoinPair,
    ProbabilityVector,
    ScoreTable,
    hoeffding_margin,
    linf_distance,
    normal_cdf,
    normal_quantile,
)
from jcl.adversaries import default_suite
from jcl.game import (
    OutcomeSet,
    StationaryDesignation,
    SunspotProfile,
    build_block_profile,
    deviation_gain,
    estimate_payoff,
    horizon_T,
    oracle_payoff,
)
from jcl.sample_games import example_quitting_game, perturbed_variant
from jcl.strong import ScoreTable, calibrate_C, simulate_strong
from jcl.weak import _successor_arrays, default_max_stages, simulate_weak

COINS = BinaryCoinPair(0.3, 0.7)
NU3 = ProbabilityVector.from_dict({"a": 0.2, "b": 0.3, "c": 0.5})
LAM2 = ProbabilityVector.from_dict({"x": 0.2, "y": 0.8})


def four_successors(lam: ProbabilityVector, coins: BinaryCoinPair) -> np.ndarray:
    """The successors of belief ``lam`` in pair order (aa, ab, ba, bb)."""
    rows = np.repeat(lam.mass[None], 4, axis=0)
    return _successor_arrays(rows, ScoreTable.from_coins(coins).flat).rows(np.arange(4))


def report(capsys, num, ok, detail, t0):
    dt = time.perf_counter() - t0
    line = f"criterion {num:>3} {'PASS' if ok else 'FAIL'}  {detail}  ({dt:.1f}s)"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def strong_configs():
    yield "honest", None, 1
    for spec in default_suite(NU3.outcomes.labels):
        for dev in (1, 2):
            yield f"{spec.name} device {dev}", spec, dev


@pytest.fixture(scope="module")
def bounded_batches():
    # shared by criteria 2 and 2b: same runs, two different bounds
    t0 = time.perf_counter()
    C = 100.0
    out = []
    for name, spec, dev in strong_configs():
        b = simulate_strong(
            COINS, NU3, C, 100_000,
            adversary=spec, adversary_device=dev, seed=20, context=("c2", name),
        )
        out.append((name, b))
    return C, out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def calibrated():
    t0 = time.perf_counter()
    r = calibrate_C(COINS, NU3, 0.05, seed=0)
    assert r.accepted, "calibration must converge for criteria 3"
    return r, time.perf_counter() - t0


@pytest.fixture(scope="module")
def example_profile():
    t0 = time.perf_counter()
    game, sunspot = example_quitting_game()
    prof = build_block_profile(game, sunspot, 0.05, seed=0)
    return prof, time.perf_counter() - t0


def test_c01_score_zero_mean(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        p1, p2 = rng.uniform(0.01, 0.99, size=2)
        t = ScoreTable.from_coins(BinaryCoinPair(float(p1), float(p2)))
        m1 = np.array([t.coins.prob(1, ALPHA), t.coins.prob(1, BETA)])
        m2 = np.array([t.coins.prob(2, ALPHA), t.coins.prob(2, BETA)])
        worst = max(worst, float(np.max(np.abs(t.values @ m2))),
                    float(np.max(np.abs(m1 @ t.values))))
    report(capsys, 1, worst <= 1e-12,
           f"1000 random coin pairs, worst marginal mean {worst:.2e} <= 1e-12", t0)


def test_c02_stage_bound_as_stated(capsys, bounded_batches):
    # EXPECTED FAIL: ceil(C / c0^2) is not a stopping bound.  Honest
    # runs at these coins need about C / 0.0441 stages on average,
    # already past the claimed cap, and the adversarial worst case is
    # governed by min|w|, not c0.
    C, batches, built = bounded_batches
    t0 = time.perf_counter() - built
    claimed = math.ceil(C / COINS.c0**2)
    total = sum(b.runs for _, b in batches)
    over = sum(int(np.sum(b.stages > claimed)) for _, b in batches)
    report(
        capsys, 2, over == 0,
        f"claimed cap ceil(C/c0^2)={claimed}: {over}/{total} runs exceed it",
        t0,
    )


def test_c02b_stage_bound_squared_floor(capsys, bounded_batches):
    t0 = time.perf_counter()
    C, batches, _ = bounded_batches
    table = ScoreTable.from_coins(COINS)
    cap = math.ceil(C / table.min_abs**2) + 2
    total = sum(b.runs for _, b in batches)
    worst = max(int(b.stages.max()) for _, b in batches)
    report(
        capsys, "2b", worst <= cap,
        f"true cap ceil(C/min|w|^2)+2={cap}: worst of {total} runs stopped at {worst}",
        t0,
    )


def test_c03_strong_epsilon_implementation(capsys, calibrated):
    cal, built = calibrated
    t0 = time.perf_counter() - built
    n = 100_000
    bound = 0.05 + hoeffding_margin(n, 3, 0.01)
    worst, worst_name = -1.0, ""
    for name, spec, dev in strong_configs():
        b = simulate_strong(
            COINS, NU3, cal.C, n,
            adversary=spec, adversary_device=dev, seed=7, context=("c3", name),
        )
        gap = linf_distance(b.empirical(), NU3)
        if gap > worst:
            worst, worst_name = gap, name
    report(
        capsys, 3, worst <= bound,
        f"calibrated C={cal.C:g}: worst linf {worst:.4f} ({worst_name}) <= {bound:.4f}",
        t0,
    )


def test_c04_weak_exact_implementation(capsys):
    t0 = time.perf_counter()
    n = 100_000
    ms = default_max_stages(COINS, LAM2)
    b = simulate_weak(COINS, LAM2, n, seed=4, max_stages=ms)
    gap = linf_distance(b.empirical(), LAM2)
    bound = hoeffding_margin(n, 2, 0.01)
    ok = gap <= bound and b.timeout_rate <= 0.01
    report(
        capsys, 4, ok,
        f"honest linf {gap:.5f} <= {bound:.5f}, timeouts {b.timeout_rate:.5f} <= 0.01 "
        f"at max_stages={ms}",
        t0,
    )


def test_c05_martingale_and_support_shrink(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    sizes = [2, 3, 5]
    worst = 0.0
    shrink_violations = 0
    for i in range(1000):
        k = sizes[i % 3]
        lam = ProbabilityVector(
            OutcomeSet(tuple(f"j{j}" for j in range(k))),
            rng.dirichlet(np.ones(k)),
        )
        coins = BinaryCoinPair(*(float(v) for v in rng.uniform(0.05, 0.95, size=2)))
        rows = four_successors(lam, coins)
        p1 = np.array([coins.prob(1, ALPHA), coins.prob(1, BETA)])
        p2 = np.array([coins.prob(2, ALPHA), coins.prob(2, BETA)])
        d = rows.reshape(2, 2, k)
        # fix either device's letter, average the other honestly
        for a1 in (ALPHA, BETA):
            worst = max(worst, float(np.max(np.abs(p2 @ d[a1] - lam.mass))))
        for a2 in (ALPHA, BETA):
            worst = max(worst, float(np.max(np.abs(p1 @ d[:, a2, :] - lam.mass))))
        if not lam.is_dirac:
            before = int(np.sum(lam.mass > 0.0))
            smallest = min(int(np.sum(row > 0.0)) for row in rows)
            if smallest >= before:
                shrink_violations += 1
    ok = worst <= 1e-9 and shrink_violations == 0
    report(
        capsys, 5, ok,
        f"1000 maps: worst martingale gap {worst:.2e} <= 1e-9, "
        f"{shrink_violations} support-shrink violations",
        t0,
    )


def test_c06_one_sided_security(capsys):
    t0 = time.perf_counter()
    n = 100_000
    bound = hoeffding_margin(n, 2, 0.01)
    worst, worst_name = -1.0, ""
    for spec in default_suite(LAM2.outcomes.labels):
        for dev in (1, 2):
            b = simulate_weak(
                COINS, LAM2, n,
                adversary=spec, adversary_device=dev, seed=6,
                context=("c6", spec.name, dev),
            )
            # timeouts absorb nowhere, so frequencies are over all runs
            counts = np.bincount(b.outcome_idx[b.outcome_idx >= 0], minlength=2)
            excess = float(np.max(counts / n - LAM2.mass))
            if excess > worst:
                worst, worst_name = excess, f"{spec.name} device {dev}"
    report(
        capsys, 6, worst <= bound,
        f"worst absorption excess {worst:.5f} ({worst_name}) <= {bound:.5f}",
        t0,
    )


def test_c07_detection(capsys):
    t0 = time.perf_counter()
    n, ms = 1000, 10_000
    from jcl.adversaries import Stall

    ok = True
    parts = []
    for dev in (1, 2):
        b = simulate_weak(
            COINS, LAM2, n, adversary=Stall(), adversary_device=dev,
            seed=70 + dev, max_stages=ms,
        )
        timed_out = b.outcome_idx < 0
        rate = float(np.mean(timed_out))
        v = np.array(b.verdicts())
        blamed = v[timed_out] == f"device{dev}_faulty"
        all_blamed = bool(np.all(blamed)) if timed_out.any() else False
        ok = ok and rate >= 0.99 and all_blamed
        parts.append(f"stall d{dev}: {rate:.1%} timeout, blamed {np.mean(blamed):.0%}")
    h = simulate_weak(COINS, LAM2, n, seed=73, max_stages=ms)
    faulty = sum(s.endswith("_faulty") for s in h.verdicts())
    ok = ok and faulty == 0
    parts.append(f"honest: {faulty} faulty verdicts")
    report(capsys, 7, ok, "; ".join(parts), t0)


def test_c08_fair_coin_xor(capsys):
    t0 = time.perf_counter()
    fair = BinaryCoinPair(0.5, 0.5)
    nu = ProbabilityVector.from_dict({"h": 0.5, "t": 0.5})
    rows = four_successors(nu, fair)
    structural = True
    for a1 in (ALPHA, BETA):
        for a2 in (ALPHA, BETA):
            row = rows[2 * a1 + a2]
            decided = int(np.sum(row > 0.0)) == 1
            outcome = nu.outcomes.labels[int(np.argmax(row))]
            structural = structural and decided
            structural = structural and outcome == ("h" if a1 != a2 else "t")
    n = 10_000
    b = simulate_weak(fair, nu, n, seed=8)
    one_stage = bool(np.all(b.stages == 1)) and b.timeout_rate == 0.0
    gap = linf_distance(b.empirical(), nu)
    bound = hoeffding_margin(n, 2, 0.01)
    ok = structural and one_stage and gap <= bound
    report(
        capsys, 8, ok,
        f"xor map exact, every run one stage, freq gap {gap:.4f} <= {bound:.4f}",
        t0,
    )


def test_c09_game_payoff_coupling(capsys, example_profile):
    prof, built = example_profile
    t0 = time.perf_counter() - built
    target = prof.sunspot.target_payoff
    oracle = oracle_payoff(prof)
    # the declared target is itself oracle-validated to the same slack
    assert float(np.max(np.abs(oracle - target))) <= 2 * 0.05
    est = estimate_payoff(prof, 10_000, seed=9)
    gap = float(np.max(np.abs(est.mean - target)))
    bound = 2 * 0.05 + est.half_width
    report(
        capsys, 9, gap <= bound,
        f"payoff linf vs target {gap:.4f} <= 2*eps + ci = {bound:.4f} "
        f"(T={prof.T}, C={prof.C:g})",
        t0,
    )


def test_c10_deviation_bound(capsys, example_profile):
    prof, _ = example_profile
    t0 = time.perf_counter()
    n = 10_000
    worst_gain, worst_desc, worst_ci = -1.0, "", 0.0
    for p in prof.game.players:
        rep = deviation_gain(prof, p, n, seed=10)
        if rep.max_gain > worst_gain:
            worst_gain = rep.max_gain
            worst_ci = rep.worst.ci
            worst_desc = f"{p}:{rep.worst.name}"
    bound = 6 * 0.05 + worst_ci
    ok = worst_gain <= bound

    game_p, sunspot_p = perturbed_variant()
    prof_p = build_block_profile(game_p, sunspot_p, 0.05, seed=0)
    rep_p = deviation_gain(prof_p, "P1", n, seed=10)
    bound_p = 10 * 0.05 + (rep_p.worst.ci if rep_p.worst else 0.0)
    ok = ok and rep_p.max_gain <= bound_p
    report(
        capsys, 10, ok,
        f"max gain {worst_gain:.4f} ({worst_desc}) <= {bound:.4f}; "
        f"perturbed-pure max gain {rep_p.max_gain:.4f} <= {bound_p:.4f}",
        t0,
    )


def test_c11_horizon_criterion(capsys):
    t0 = time.perf_counter()
    outcomes = OutcomeSet(("P1", "0"))
    s = SunspotProfile(
        x={"P1": ProbabilityVector.from_dict({"u": 0.5, "v": 0.5})},
        designation=StationaryDesignation(ProbabilityVector(outcomes, [1.0, 0.0])),
        eta=0.01,
    )
    closed = horizon_T(s, 0.05, method="closed_form")
    mc = horizon_T(s, 0.05, method="monte_carlo", seed=11)
    ok = closed == 299 and abs(mc - closed) <= 2
    report(capsys, 11, ok, f"closed form T={closed}, Monte Carlo T={mc} (within 2)", t0)


def test_c12_quantile_accuracy(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1, 1000):
        p = i / 1000.0
        worst = max(worst, abs(normal_cdf(normal_quantile(p)) - p))
    mid = normal_quantile(0.5)
    upper = abs(normal_quantile(0.975) - 1.959964)
    ok = worst <= 1e-8 and mid == 0.0 and upper <= 1e-5
    report(
        capsys, 12, ok,
        f"999-point round trip error {worst:.1e} <= 1e-8, "
        f"quantile(0.5)={mid}, quantile(0.975) off by {upper:.1e}",
        t0,
    )

"""Byte ledger: SHA-256 digests of small reports at fixed seeds.

Every command's report is a pure function of (config, seed), so a
refactor that keeps behaviour keeps these digests.  A change that
reads the random streams differently moves them; it then updates the
digests here and says why in CHANGES.md.  A numpy upgrade may move
them as well.
"""

import hashlib
import json

import pytest

from jcl import BinaryCoinPair, Honest, ProbabilityVector, default_suite, run_strong, run_weak
from jcl.cli import main
from jcl.sample_games import example_quitting_game

COINS = {"p1_alpha": 0.3, "p2_alpha": 0.7}
TARGET = {"a": 0.2, "b": 0.3, "c": 0.5}
LOTTERY = {"coins": COINS, "target": TARGET, "seed": 5}
SUNSPOT = {
    "x": {"P1": {"a": 0.6, "b": 0.4}, "P2": {"c": 0.5, "d": 0.5}, "P3": {"e": 1.0}},
    "designation": {"type": "stationary", "probs": {"P1": 0.3, "P2": 0.3, "P3": 0.3, "0": 0.1}},
    "eta": 0.02,
    "target_payoff": [0.55, 0.55, 0.5],
}


def _game(runs):
    return {"game": example_quitting_game()[0].to_dict(), "sunspot": SUNSPOT,
            "C": 100.0, "eps": 0.05, "runs": runs, "seed": 5}


# command -> (argv before --config, config, report digest)
REPORTS = {
    "lottery-strong": (
        ["lottery-strong"],
        {**LOTTERY, "C": 200.0, "adversary": "push:c", "adversary_device": 2, "runs": 30_000},
        "07a0fb66564af0b8cd31d0c18ad03b8370bc8a7d77e9cda10e6d18767648766f",
    ),
    "lottery-weak": (
        ["lottery-weak"],
        {**LOTTERY, "adversary": "push:b", "runs": 30_000},
        "def744325be6f30b7876ab148fbba66a1f6e6c7afe470e8b11f1aa140e7360c7",
    ),
    "detect": (
        ["detect"],
        {**LOTTERY, "adversary": "stall", "max_stages": 1500, "runs": 200},
        "f7fc151fe0f19818f2d4f44e78daf5ca8125c55eee193a72b3b8186393f0ea4b",
    ),
    "calibrate": (
        ["calibrate"],
        {**LOTTERY, "eps": 0.2, "runs_per_probe": 2000},
        "6c6e36d4635715654253a98b323ed0492c2839422ac8a39145f2f2e683a553f7",
    ),
    "game-payoff": (
        ["game", "--mode", "payoff"], _game(2000),
        "5f57b491c175e6fc493e7f4d7a187bdc2cb66ea03734375924a6f91aecc59f00",
    ),
    "game-deviations": (
        ["game", "--mode", "deviations"], _game(300),
        "1caa2b3b6229a21db6c784013cb766bcc768060e69b628d707d9d73ed7da2b65",
    ),
}

TRANSCRIPTS = {
    "strong": "fcec6c4af9e003ccf3c2223ee06eb24d2c14d3bbba6d4f1b486d74fa89327166",
    "weak": "8517b414b8eac5d502b66f84bc0341196c970f9124c11abaa6113f24ddfa9de9",
}


def _report(tmp_path, capsys, command, cfg, *extra) -> str:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / f"report-{len(extra)}"
    assert main([*command, "--config", str(config), "--out", str(out), *extra]) == 0
    capsys.readouterr()
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(REPORTS))
def test_report_bytes(name, tmp_path, capsys):
    command, cfg, digest = REPORTS[name]
    assert _report(tmp_path, capsys, command, cfg) == digest


@pytest.mark.parametrize("name", ["lottery-strong", "lottery-weak"])
def test_jobs_write_the_same_bytes(name, tmp_path, capsys):
    # 30k runs make two shards, so --jobs 2 really runs them in parallel
    command, cfg, digest = REPORTS[name]
    assert _report(tmp_path, capsys, command, cfg, "--jobs", "2") == digest


def test_detect_jobs_write_the_same_bytes(tmp_path, capsys):
    # one run past a shard makes two shards; stalled runs jump, so the
    # jump draws must stay per shard
    command, cfg, _ = REPORTS["detect"]
    cfg = {**cfg, "runs": 25_001, "max_stages": 200, "window": 50}
    assert _report(tmp_path, capsys, command, cfg, "--jobs", "2") == _report(
        tmp_path, capsys, command, cfg)


def _specs():
    coins = BinaryCoinPair(0.3, 0.7)
    target = ProbabilityVector.from_dict(TARGET)
    for spec in [Honest()] + default_suite(target.outcomes.labels):
        for device in (1, 2):
            args = {"adversary": spec} if device == 1 else {"adversary": spec, "adversary_device": 2}
            yield coins, target, spec, device, args


def test_run_strong_transcripts():
    h = hashlib.sha256()
    for coins, target, spec, device, args in _specs():
        r = run_strong(coins, target, 10.0, seed=7, context=(spec.name, device), **args)
        h.update(repr((spec.name, device, r.outcome, r.stages, r.z, r.transcript.stages)).encode())
    assert h.hexdigest() == TRANSCRIPTS["strong"]


def test_run_weak_transcripts():
    h = hashlib.sha256()
    for coins, target, spec, device, args in _specs():
        r = run_weak(coins, target, seed=7, max_stages=200, context=(spec.name, device),
                     window=100, **args)
        h.update(repr((spec.name, device, r.outcome, r.stages, r.transcript.stages,
                       r.verdict)).encode())
    assert h.hexdigest() == TRANSCRIPTS["weak"]

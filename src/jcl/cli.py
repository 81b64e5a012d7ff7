"""Batch experiment runner for the lottery mechanisms and quitting games.

Subcommands: lottery-strong, lottery-weak, detect, calibrate, game.
Each takes a JSON config plus overriding flags and writes a CSV or
JSON report.  Outputs are pure functions of (config, seed): rerunning
a command reproduces its report byte for byte, and --jobs only changes
wall time, never content.  Set JCL_LOG=INFO or DEBUG for progress
logging on stderr.

Exit codes: 0 success, 2 config or I/O error, 3 failed --assert gate.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .adversaries import AdversarySpec, parse_adversary
from .core import BinaryCoinPair, ProbabilityVector, config_object, is_json_number, json_number
from .game import (
    QuittingGame,
    build_block_profile,
    deviation_gain,
    estimate_payoff,
    oracle_payoff,
    parse_deviation,
    sunspot_from_dict,
)
from .stats import EmpiricalDistribution, hoeffding_margin, linf_distance
from .strong import calibrate_C, simulate_strong
from .weak import WeakBatch, default_max_stages, simulate_weak

log = logging.getLogger("jcl")

SHARD_RUNS = 25_000     # fixed shard size so --jobs never changes results


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _target(raw) -> ProbabilityVector:
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("target must be a nonempty label -> mass object")
    return ProbabilityVector.from_dict(raw)


def _integral(value, key: str) -> int:
    """``value`` as an int; non-numbers and non-integral numbers are
    refused rather than coerced or truncated."""
    if not is_json_number(value) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _adversary(cfg: dict) -> tuple[AdversarySpec | None, int]:
    name = cfg.get("adversary")
    device = _integral(cfg.get("adversary_device", 1), "adversary_device")
    if device not in (1, 2):
        raise ConfigError(f"adversary_device must be 1 or 2, got {device}")
    if name is None:
        return None, device
    return parse_adversary(str(name)), device


def _int_setting(args_value, cfg: dict, key: str, default=None, *, what: str) -> int:
    value = args_value if args_value is not None else cfg.get(key, default)
    if value is None:
        raise ConfigError(f"{what} needs {key!r} (config key or flag)")
    value = _integral(value, key)
    if value < 0:
        raise ConfigError(f"{key} must be nonnegative, got {value}")
    return value


def _eps_setting(args, cfg: dict, default=None) -> float | None:
    eps = args.eps if args.eps is not None else cfg.get("eps")
    if eps is None:
        return default
    eps = json_number(eps, "eps")
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"eps must be in (0,1), got {eps}")
    return eps


def _shard(payload):
    """One shard of a lottery command.  The engine is looked up in this
    module at call time, so a wrapper set on ``jcl.cli`` is the one run."""
    engine, kw, index, runs = payload
    run = simulate_strong if engine == "strong" else simulate_weak
    return run(runs=runs, context=("shard", index), **kw)


def _shards(engine: str, lottery: dict, runs: int, jobs: int, **kw) -> list:
    """Run ``runs`` lotteries in fixed-size shards, in submission order,
    optionally in processes; ``lottery`` and ``kw`` are engine keywords."""
    sizes = [SHARD_RUNS] * (runs // SHARD_RUNS) + ([runs % SHARD_RUNS] if runs % SHARD_RUNS else [])
    payloads = [(engine, {**lottery, **kw}, i, n) for i, n in enumerate(sizes)]
    if jobs <= 1 or len(payloads) <= 1:
        return [_shard(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_shard, payloads))


def _joined(batches: list, name: str, dtype=np.int64) -> np.ndarray:
    """One per-run field of a command's shards, in run order."""
    return np.concatenate([getattr(b, name) for b in batches]) if batches else np.zeros(0, dtype)


def _open_out(path: str):
    if path == "-":
        return sys.stdout
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as e:
        raise ConfigError(f"cannot write output {path}: {e}") from e


def _write_rows(path: str, header: list[str], rows) -> None:
    f = _open_out(path)
    try:
        w = csv.writer(f, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    finally:
        if f is not sys.stdout:
            f.close()


def _write_json(path: str, payload: dict) -> None:
    f = _open_out(path)
    try:
        json.dump(payload, f, indent=2)
        f.write("\n")
    finally:
        if f is not sys.stdout:
            f.close()


def _lottery(args, cfg: dict, command: str, keys: tuple[str, ...]) -> tuple[dict, int]:
    """Settings every lottery command reads, after checking ``cfg``'s
    keys against them and the command's own ``keys``.

    Returns the engine keywords every shard shares (coins, target,
    adversary, adversary_device, seed) and the number of runs.
    """
    config_object(
        cfg, f"{command} config", required=("coins", "target"),
        optional=("adversary", "adversary_device", "runs", "seed", *keys),
    )
    lottery = {"coins": BinaryCoinPair.from_dict(cfg["coins"]), "target": _target(cfg["target"])}
    lottery["adversary"], lottery["adversary_device"] = _adversary(cfg)
    runs = _int_setting(args.runs, cfg, "runs", what=command)
    lottery["seed"] = _int_setting(args.seed, cfg, "seed", 0, what=command)
    return lottery, runs


def _gate(args, stat: str, value: float, eps: float | None, runs: int, labels: int) -> int:
    """Under --assert, print whether ``value`` stays within eps plus the
    99% Hoeffding margin, and return the exit code."""
    if not args.do_assert:
        return 0
    if eps is None:
        raise ConfigError("--assert needs an eps gate (flag or config)")
    if runs == 0:
        raise ConfigError("--assert needs runs > 0")
    bound = eps + hoeffding_margin(runs, labels, 0.01)
    ok = value <= bound
    verdict = "PASS" if ok else "FAIL"
    print(f"gate: {stat} {value:.6f} {'<=' if ok else '>'} {bound:.6f} -> {verdict}")
    return 0 if ok else 3


def cmd_lottery_strong(args, cfg: dict) -> int:
    lottery, runs = _lottery(args, cfg, "lottery-strong", ("C", "eps"))
    coins, target = lottery["coins"], lottery["target"]
    eps = _eps_setting(args, cfg)
    C = cfg.get("C")
    if C is None:
        if eps is None:
            raise ConfigError("lottery-strong needs either 'C' or an eps to calibrate from")
        log.info("no C given, calibrating at eps=%s", eps)
        calibration = calibrate_C(coins, target, eps, seed=lottery["seed"])
        if not calibration.accepted:
            raise ConfigError(f"calibration failed to find C at eps={eps}")
        C = calibration.C
    C = json_number(C, "C")
    if C <= 0:
        raise ConfigError(f"C must be positive, got {C}")

    batches = _shards("strong", lottery, runs, args.jobs, C=C)
    outcome_idx = _joined(batches, "outcome_idx")
    stages = _joined(batches, "stages")
    z = _joined(batches, "z", np.float64)

    labels = target.outcomes.labels
    rows = (
        (i, labels[outcome_idx[i]], int(stages[i]), repr(float(z[i])))
        for i in range(runs)
    )
    _write_rows(args.out, ["run_id", "outcome", "stages", "z_value"], rows)

    counts = np.bincount(outcome_idx, minlength=target.outcomes.size)
    linf = linf_distance(EmpiricalDistribution(target.outcomes, counts), target) if runs else 0.0
    print(f"lottery-strong: runs={runs} C={C!r} linf={linf:.6f}")
    return _gate(args, "linf", linf, eps, runs, target.outcomes.size)


def _weak_batch(args, cfg: dict, command: str, *, with_eps: bool, max_stages: int | None):
    """Settings, shards and verdicts of the detecting lottery commands.

    Returns the lottery settings (see :func:`_lottery`), the eps gate
    (None unless ``with_eps``), the runs joined into one batch, and
    their verdicts.  ``max_stages=None`` defaults to the lottery's own
    budget.
    """
    keys = ("max_stages", "window", "faulty_below", "honest_above")
    lottery, runs = _lottery(args, cfg, command, keys + (("eps",) if with_eps else ()))
    eps = _eps_setting(args, cfg, 0.0) if with_eps else None
    if max_stages is None:
        max_stages = default_max_stages(lottery["coins"], lottery["target"])
    max_stages = _int_setting(args.max_stages, cfg, "max_stages", max_stages, what=command)
    window = _int_setting(None, cfg, "window", 1000, what=command)
    faulty_below = json_number(cfg.get("faulty_below", 0.1), "faulty_below")
    honest_above = json_number(cfg.get("honest_above", 0.2), "honest_above")

    batches = _shards("weak", lottery, runs, args.jobs, max_stages=max_stages, window=window)
    fields = ("outcome_idx", "stages", "match1", "match2", "window_stages")
    batch = WeakBatch(lottery["target"].outcomes, *(_joined(batches, name) for name in fields),
                      window, max_stages)
    verdicts = batch.verdicts(faulty_below=faulty_below, honest_above=honest_above)
    return lottery, eps, batch, verdicts


def cmd_lottery_weak(args, cfg: dict) -> int:
    lottery, eps, batch, verdicts = _weak_batch(
        args, cfg, "lottery-weak", with_eps=True, max_stages=None
    )
    target = lottery["target"]
    labels = target.outcomes.labels
    rows = (
        (i, labels[k] if k >= 0 else "timeout", s, v)
        for i, (k, s, v) in enumerate(
            zip(batch.outcome_idx.tolist(), batch.stages.tolist(), verdicts)
        )
    )
    _write_rows(args.out, ["run_id", "outcome_or_timeout", "stages", "verdict"], rows)

    runs = batch.runs
    decided = batch.outcome_idx[batch.outcome_idx >= 0]
    timeouts = runs - decided.size
    if runs:
        # absorption frequency over all runs: the security bound caps the
        # probability of absorbing at each label, and timeouts absorb nowhere
        counts = np.bincount(decided, minlength=target.outcomes.size)
        excess = float(np.max(counts / runs - target.mass))
    else:
        excess = 0.0
    print(
        f"lottery-weak: runs={runs} timeouts={timeouts} max_stages={batch.max_stages} "
        f"max_excess={excess:.6f}"
    )
    return _gate(args, "excess", excess, eps, runs, target.outcomes.size)


def cmd_detect(args, cfg: dict) -> int:
    lottery, _, batch, verdicts = _weak_batch(
        args, cfg, "detect", with_eps=False, max_stages=10_000
    )
    spec, device = lottery["adversary"], lottery["adversary_device"]
    timed_out = (batch.outcome_idx < 0).tolist()
    rates = zip(batch.match1.tolist(), batch.match2.tolist(), batch.window_stages.tolist())
    rows = []
    for i, (t, (m1, m2, ws), v) in enumerate(zip(timed_out, rates, verdicts)):
        r1 = m1 / ws if ws else float("nan")
        r2 = m2 / ws if ws else float("nan")
        rows.append((i, "true" if t else "false", repr(r1), repr(r2), v))
    _write_rows(
        args.out,
        ["run_id", "timed_out", "match_rate1", "match_rate2", "verdict"],
        rows,
    )

    n_timeout = sum(timed_out)
    name = spec.name if spec else "none"
    print(f"detect: runs={batch.runs} timeouts={n_timeout} adversary={name}")
    if args.do_assert:
        # with an adversary: every timed-out run must blame exactly that
        # device; without one: no run may blame either device
        if spec is not None and spec.name != "honest":
            want = f"device{device}_faulty"
            bad = [v for v, t in zip(verdicts, timed_out) if t and v != want]
            ok = not bad and n_timeout > 0
            print(
                f"gate: {n_timeout} timeouts, {len(bad)} not blamed on {want} -> "
                f"{'PASS' if ok else 'FAIL'}"
            )
        else:
            bad = [v for v in verdicts if v.endswith("_faulty")]
            ok = not bad
            print(f"gate: {len(bad)} faulty verdicts under honest play -> {'PASS' if ok else 'FAIL'}")
        if not ok:
            return 3
    return 0


def cmd_calibrate(args, cfg: dict) -> int:
    config_object(cfg, "calibrate config", required=("coins", "target"),
                  optional=("eps", "runs_per_probe", "max_doublings", "seed"))
    coins = BinaryCoinPair.from_dict(cfg["coins"])
    target = _target(cfg["target"])
    eps = _eps_setting(args, cfg)
    if eps is None:
        raise ConfigError("calibrate needs an eps (flag or config)")
    seed = _int_setting(args.seed, cfg, "seed", 0, what="calibrate")
    runs_per_probe = _int_setting(args.runs, cfg, "runs_per_probe", 20_000, what="calibrate")
    max_doublings = _int_setting(None, cfg, "max_doublings", 12, what="calibrate")

    result = calibrate_C(
        coins, target, eps,
        seed=seed, runs_per_probe=runs_per_probe, max_doublings=max_doublings,
    )
    _write_json(args.out, result.as_dict())
    print(
        f"calibrate: eps={eps} accepted={result.accepted} C={result.C!r} "
        f"probes={len(result.probes)}"
    )
    if args.do_assert and not result.accepted:
        print("gate: calibration schedule exhausted -> FAIL")
        return 3
    return 0


def cmd_game(args, cfg: dict) -> int:
    config_object(cfg, "game config", required=("game", "sunspot"),
                  optional=("C", "eps", "runs", "seed", "players", "deviations"))
    seed = _int_setting(args.seed, cfg, "seed", 0, what="game")
    game = QuittingGame.from_dict(cfg["game"])
    sunspot = sunspot_from_dict(game, cfg["sunspot"])
    eps = _eps_setting(args, cfg)
    if eps is None:
        raise ConfigError("game needs an eps (flag or config)")
    runs = _int_setting(args.runs, cfg, "runs", what="game")
    C = cfg.get("C")
    profile = build_block_profile(
        game, sunspot, eps, C=None if C is None else json_number(C, "C"), seed=seed,
    )
    log.info("block profile: T=%d C=%r eps_block=%r", profile.T, profile.C, profile.eps_block)
    if runs < 1:
        raise ConfigError("game needs runs > 0")
    target = profile.sunspot.target_payoff

    report: dict = {
        "mode": args.mode,
        "epsilon": eps,
        "seed": seed,
        "runs": runs,
        "T": profile.T,
        "C": profile.C,
        "eps_block": profile.eps_block,
        "coins": profile.coins.as_dict(),
    }

    if args.mode == "payoff":
        est = estimate_payoff(profile, runs, seed=seed)
        oracle = oracle_payoff(profile)
        report["estimate"] = est.as_dict()
        report["oracle"] = [float(v) for v in oracle]
        report["target"] = None if target is None else [float(v) for v in target]
        gate = None
        if target is not None:
            linf = float(np.max(np.abs(est.mean - target)))
            bound = 2.0 * eps + est.half_width
            gate = {"linf_vs_target": linf, "bound": bound, "passed": bool(linf <= bound)}
        report["gate"] = gate
        _write_json(args.out, report)
        if gate is None:
            print(f"game payoff: estimate={[round(v, 4) for v in est.mean]} (no target given)")
        else:
            print(
                f"game payoff: linf={gate['linf_vs_target']:.4f} bound={gate['bound']:.4f} "
                f"-> {'PASS' if gate['passed'] else 'FAIL'}"
            )
        if args.do_assert:
            if gate is None:
                raise ConfigError("--assert in payoff mode needs sunspot.target_payoff")
            if not gate["passed"]:
                return 3
        return 0

    players = cfg.get("players", list(profile.game.players))
    if not isinstance(players, list) or not players:
        raise ConfigError("players must be a nonempty list")
    for p in players:
        if p not in profile.game.players:
            raise ConfigError(f"unknown player {p!r} in players")
    family = None
    if "deviations" in cfg:
        family = [parse_deviation(str(n)) for n in cfg["deviations"]]

    try:
        reports = [deviation_gain(profile, p, runs, family=family, seed=seed) for p in players]
    except ValueError as e:
        raise ConfigError(str(e)) from e
    worst = max(reports, key=lambda r: r.max_gain)
    worst_gain = worst.max_gain
    bound = 6.0 * eps + (worst.worst.ci if worst.worst is not None else 0.0)
    gate = {"max_gain": worst_gain, "bound": bound, "passed": bool(worst_gain <= bound)}
    report["players"] = {p: r.as_dict() for p, r in zip(players, reports)}
    report["gate"] = gate
    _write_json(args.out, report)
    print(
        f"game deviations: max_gain={worst_gain:.4f} bound={bound:.4f} "
        f"-> {'PASS' if gate['passed'] else 'FAIL'}"
    )
    if args.do_assert and not gate["passed"]:
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcl",
        description="Run, attack, and verify jointly controlled lotteries "
        "and the quitting-game profiles built on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, jobs=False, eps=False, max_stages=False):
        """Flags every subcommand reads, plus the optional ones it reads too."""
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="root seed (overrides config)")
        p.add_argument("--runs", type=int, default=None, help="number of runs (overrides config)")
        p.add_argument("--out", required=True, help="output path, '-' for stdout")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
        if eps:
            p.add_argument("--eps", type=float, default=None,
                           help="accuracy target (overrides config)")
        if max_stages:
            p.add_argument("--max-stages", dest="max_stages", type=int, default=None,
                           help="stage cap for the detecting lottery (overrides config)")
        p.add_argument("--assert", dest="do_assert", action="store_true",
                       help="exit 3 unless the subcommand's acceptance gate passes")

    p = sub.add_parser("lottery-strong", help="bounded lottery batch -> CSV")
    common(p, jobs=True, eps=True)
    p.set_defaults(func=cmd_lottery_strong)

    p = sub.add_parser("lottery-weak", help="detecting lottery batch -> CSV")
    common(p, jobs=True, eps=True, max_stages=True)
    p.set_defaults(func=cmd_lottery_weak)

    p = sub.add_parser("detect", help="fault detection batch -> CSV")
    common(p, jobs=True, max_stages=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("calibrate", help="search the stopping threshold C -> JSON")
    common(p, eps=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("game", help="quitting-game payoff or deviation report -> JSON")
    common(p, eps=True)
    p.add_argument("--mode", choices=("payoff", "deviations"), default="payoff")
    p.set_defaults(func=cmd_game)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    level = os.environ.get("JCL_LOG", "WARNING").upper()
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = _load_config(args.config)
        return args.func(args, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

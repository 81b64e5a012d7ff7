"""End-to-end command line checks via subprocess.

Every command is rerun-stable: same config and seed give byte-identical
reports, and --jobs never changes content.
"""

import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from jcl.sample_games import example_quitting_game

STRONG_CFG = {
    "coins": {"p1_alpha": 0.3, "p2_alpha": 0.7},
    "target": {"a": 0.2, "b": 0.3, "c": 0.5},
    "C": 5.0,
    "runs": 400,
    "seed": 1,
}

WEAK_CFG = {
    "coins": {"p1_alpha": 0.3, "p2_alpha": 0.7},
    "target": {"x": 0.25, "y": 0.75},
    "runs": 2000,
    "seed": 3,
}


def run_cli(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "jcl.cli", *argv],
        capture_output=True, text=True, env=env,
    )


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def sunspot_cfg(target=(0.55, 0.55, 0.5)):
    return {
        "x": {"P1": {"a": 0.6, "b": 0.4}, "P2": {"c": 0.5, "d": 0.5}, "P3": {"e": 1.0}},
        "designation": {
            "type": "stationary",
            "probs": {"P1": 0.3, "P2": 0.3, "P3": 0.3, "0": 0.1},
        },
        "eta": 0.02,
        "target_payoff": list(target),
    }


class TestLotteryStrong:
    def test_csv_shape_and_rerun_stability(self, tmp_path):
        cfg = write_cfg(tmp_path, STRONG_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1 = run_cli("lottery-strong", "--config", cfg, "--out", str(out1))
        assert r1.returncode == 0, r1.stderr
        assert "lottery-strong: runs=400" in r1.stdout
        lines = out1.read_text().splitlines()
        assert lines[0] == "run_id,outcome,stages,z_value"
        assert len(lines) == 401
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] in {"a", "b", "c"}
        assert int(first[2]) >= 1
        float(first[3])
        r2 = run_cli("lottery-strong", "--config", cfg, "--out", str(out2))
        assert r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path):
        # two shards at 30000 runs, so --jobs 2 really parallelizes
        cfg = write_cfg(tmp_path, {**STRONG_CFG, "C": 2.0, "runs": 30000})
        out1, out2 = tmp_path / "j1.csv", tmp_path / "j2.csv"
        r1 = run_cli("lottery-strong", "--config", cfg, "--out", str(out1), "--jobs", "1")
        r2 = run_cli("lottery-strong", "--config", cfg, "--out", str(out2), "--jobs", "2")
        assert r1.returncode == 0 and r2.returncode == 0, r2.stderr
        assert out1.read_bytes() == out2.read_bytes()

    def test_assert_gate_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, {**STRONG_CFG, "C": 10.0, "runs": 2000})
        r = run_cli("lottery-strong", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                    "--eps", "0.2", "--assert")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "gate:" in r.stdout and "PASS" in r.stdout

    def test_stdout_output(self, tmp_path):
        cfg = write_cfg(tmp_path, {**STRONG_CFG, "runs": 5})
        r = run_cli("lottery-strong", "--config", cfg, "--out", "-")
        assert r.returncode == 0
        assert r.stdout.startswith("run_id,outcome,stages,z_value\n")

    def test_runs_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path, STRONG_CFG)
        out = tmp_path / "o.csv"
        r = run_cli("lottery-strong", "--config", cfg, "--out", str(out), "--runs", "3")
        assert r.returncode == 0
        assert len(out.read_text().splitlines()) == 4

    def test_zero_runs_writes_header_only(self, tmp_path):
        cfg = write_cfg(tmp_path, {**STRONG_CFG, "runs": 0})
        out = tmp_path / "o.csv"
        r = run_cli("lottery-strong", "--config", cfg, "--out", str(out))
        assert r.returncode == 0
        assert out.read_text() == "run_id,outcome,stages,z_value\n"

    def test_comma_labels_are_quoted(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            **STRONG_CFG, "target": {"a,b": 0.5, "c": 0.5}, "C": 1.0, "runs": 5,
        })
        out = tmp_path / "o.csv"
        r = run_cli("lottery-strong", "--config", cfg, "--out", str(out))
        assert r.returncode == 0
        body = out.read_text()
        assert '"a,b"' in body or ",c," in body
        import csv as _csv
        rows = list(_csv.reader(out.read_text().splitlines()))
        assert all(len(row) == 4 for row in rows)


class TestConfigErrors:
    @pytest.mark.parametrize("mutate,needle", [
        ({"coins": {"p1_alpha": 0.0, "p2_alpha": 0.7}}, "positive-probability hypothesis"),
        ({"bogus_key": 1}, "unknown lottery-strong config keys"),
        ({"runs": None}, "needs 'runs'"),
        ({"eps": 1.5}, "eps must be in (0,1)"),
        ({"adversary_device": 3}, "adversary_device must be 1 or 2"),
        ({"adversary": "sabotage"}, "unknown adversary"),
        ({"C": None, "eps": None}, "needs either 'C'"),
        ({"runs": 2.5}, "runs must be an integer, got 2.5"),
        ({"seed": 1.9}, "seed must be an integer, got 1.9"),
        ({"adversary_device": 2.7}, "adversary_device must be an integer, got 2.7"),
        ({"runs": "5"}, "runs must be an integer, got '5'"),
        ({"runs": "2.5"}, "runs must be an integer, got '2.5'"),
        ({"C": "50"}, "C must be a number, got '50'"),
        ({"eps": "0.1"}, "eps must be a number, got '0.1'"),
        ({"coins": {"p1_alpha": "0.3", "p2_alpha": 0.7}}, "p1_alpha must be a number, got '0.3'"),
        ({"coins": {"p1_alpha": 0.3, "p2_alpha": True}}, "p2_alpha must be a number, got True"),
        ({"target": {"a": "0.2", "b": 0.3, "c": 0.5}}, "mass of 'a' must be a number, got '0.2'"),
    ])
    def test_bad_config_exits_2(self, tmp_path, mutate, needle):
        cfg = {k: v for k, v in {**STRONG_CFG, **mutate}.items() if v is not None}
        path = write_cfg(tmp_path, cfg)
        r = run_cli("lottery-strong", "--config", path, "--out", str(tmp_path / "o.csv"))
        assert r.returncode == 2
        assert needle in r.stderr

    def test_bool_setting_is_not_an_integer(self, tmp_path):
        path = write_cfg(tmp_path, {**WEAK_CFG, "runs": 5, "window": True})
        r = run_cli("detect", "--config", path, "--out", str(tmp_path / "d.csv"))
        assert r.returncode == 2
        assert "window must be an integer, got True" in r.stderr

    @pytest.mark.parametrize("key", ["faulty_below", "honest_above"])
    def test_string_thresholds_are_refused(self, tmp_path, key):
        path = write_cfg(tmp_path, {**WEAK_CFG, "runs": 5, key: "0.1"})
        r = run_cli("detect", "--config", path, "--out", str(tmp_path / "d.csv"))
        assert r.returncode == 2
        assert f"{key} must be a number, got '0.1'" in r.stderr

    def test_string_game_threshold_is_refused(self, tmp_path):
        path = write_cfg(tmp_path, {
            "game": example_quitting_game()[0].to_dict(), "sunspot": sunspot_cfg(),
            "C": "400", "eps": 0.05, "runs": 10,
        })
        r = run_cli("game", "--config", path, "--out", str(tmp_path / "g.json"))
        assert r.returncode == 2
        assert "C must be a number, got '400'" in r.stderr

    @pytest.mark.parametrize("path,needle", [
        (("sunspot", "x", "P1", "a"), "mixing weight P1/a must be a number, got '0.6'"),
        (("sunspot", "designation", "probs", "P1"), "designation prob of 'P1' must be a number"),
        (("sunspot", "target_payoff", 0), "target_payoff must be a number, got '0.55'"),
        (("game", "payoffs", 0, "u", 0), "must be a number, got '0.1'"),
    ])
    def test_string_game_numbers_are_refused(self, tmp_path, path, needle):
        cfg = {"game": example_quitting_game()[0].to_dict(), "sunspot": sunspot_cfg(),
               "C": 400.0, "eps": 0.05, "runs": 10}
        *parents, key = path
        node = cfg
        for k in parents:
            node = node[k]
        node[key] = str(node[key])
        r = run_cli("game", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "g.json"))
        assert r.returncode == 2
        assert needle in r.stderr

    def test_integral_float_settings_are_accepted(self, tmp_path):
        out = tmp_path / "o.csv"
        r = run_cli("lottery-strong", "--config",
                    write_cfg(tmp_path, {**STRONG_CFG, "runs": 4e2, "adversary_device": 2.0}),
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert len(out.read_text().splitlines()) == 401

    @pytest.mark.parametrize("command,flag", [
        ("lottery-strong", ["--max-stages", "3"]),
        ("detect", ["--eps", "7"]),
        ("calibrate", ["--jobs", "2"]),
        ("game", ["--jobs", "2"]),
    ])
    def test_flags_a_command_does_not_read_are_refused(self, tmp_path, command, flag):
        path = write_cfg(tmp_path, STRONG_CFG)
        r = run_cli(command, "--config", path, "--out", str(tmp_path / "o"), *flag)
        assert r.returncode == 2
        assert "unrecognized arguments" in r.stderr

    def test_unreadable_and_malformed_configs(self, tmp_path):
        out = str(tmp_path / "o.csv")
        r = run_cli("lottery-strong", "--config", str(tmp_path / "missing.json"), "--out", out)
        assert r.returncode == 2 and "cannot read config" in r.stderr
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        r = run_cli("lottery-strong", "--config", str(bad), "--out", out)
        assert r.returncode == 2 and "not valid JSON" in r.stderr
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        r = run_cli("lottery-strong", "--config", str(arr), "--out", out)
        assert r.returncode == 2 and "must hold a JSON object" in r.stderr


class TestLotteryWeak:
    def test_honest_batch_layout_and_gate(self, tmp_path):
        cfg = write_cfg(tmp_path, WEAK_CFG)
        out = tmp_path / "w.csv"
        r = run_cli("lottery-weak", "--config", cfg, "--out", str(out), "--assert")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "gate: excess" in r.stdout and "PASS" in r.stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "run_id,outcome_or_timeout,stages,verdict"
        assert len(lines) == 2001
        cells = [l.split(",") for l in lines[1:]]
        assert {c[1] for c in cells} <= {"x", "y", "timeout"}
        # honest play must never blame a device
        assert {c[3] for c in cells} <= {"none", "inconclusive"}

    def test_stall_times_out_and_is_blamed(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            **WEAK_CFG, "runs": 40, "adversary": "stall", "adversary_device": 1,
            "max_stages": 1500, "window": 1000,
        })
        out = tmp_path / "w.csv"
        r = run_cli("lottery-weak", "--config", cfg, "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert "timeouts=40" in r.stdout
        for line in out.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[1] == "timeout" and cells[2] == "1500"
            assert cells[3] == "device1_faulty"


class TestDetect:
    def test_stall_detection_gate(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            **WEAK_CFG, "runs": 40, "adversary": "stall", "adversary_device": 2,
            "max_stages": 1500, "window": 1000,
        })
        out = tmp_path / "d.csv"
        r = run_cli("detect", "--config", cfg, "--out", str(out), "--assert")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "PASS" in r.stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "run_id,timed_out,match_rate1,match_rate2,verdict"
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] == "true"
            assert float(cells[3]) == 0.0  # a stalled device matches nothing
            assert cells[4] == "device2_faulty"

    def test_honest_play_yields_no_blame(self, tmp_path):
        cfg = write_cfg(tmp_path, {**WEAK_CFG, "runs": 200, "max_stages": 500})
        r = run_cli("detect", "--config", cfg, "--out", str(tmp_path / "d.csv"), "--assert")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "faulty verdicts under honest play" in r.stdout

    def test_terminating_adversary_fails_the_gate(self, tmp_path):
        # constant alpha on device 1 still terminates, so the timeout
        # requirement of the adversary gate cannot be met
        cfg = write_cfg(tmp_path, {
            **WEAK_CFG, "runs": 50, "adversary": "constant:alpha",
            "adversary_device": 1, "max_stages": 2000,
        })
        r = run_cli("detect", "--config", cfg, "--out", str(tmp_path / "d.csv"), "--assert")
        assert r.returncode == 3
        assert "FAIL" in r.stdout


class TestCalibrate:
    def test_json_report(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "coins": {"p1_alpha": 0.3, "p2_alpha": 0.7},
            "target": {"a": 0.2, "b": 0.3, "c": 0.5},
            "seed": 1,
        })
        out = tmp_path / "cal.json"
        r = run_cli("calibrate", "--config", cfg, "--out", str(out),
                    "--eps", "0.5", "--runs", "2000", "--assert")
        assert r.returncode == 0, r.stdout + r.stderr
        rep = json.loads(out.read_text())
        assert rep["accepted"] is True
        assert rep["epsilon"] == 0.5
        assert rep["C0"] == rep["C"] == 16.0
        assert rep["runs_per_probe"] == 2000
        probe = rep["probes"][0]
        assert {"C", "adversary", "device", "linf", "threshold"} <= set(probe)

    def test_needs_eps(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "coins": {"p1_alpha": 0.3, "p2_alpha": 0.7},
            "target": {"a": 0.5, "b": 0.5},
        })
        r = run_cli("calibrate", "--config", cfg, "--out", "-")
        assert r.returncode == 2
        assert "needs an eps" in r.stderr


@pytest.fixture(scope="module")
def game_dict():
    return example_quitting_game()[0].to_dict()


class TestGame:
    def test_payoff_report_and_gate(self, tmp_path, game_dict):
        cfg = write_cfg(tmp_path, {
            "game": game_dict, "sunspot": sunspot_cfg(),
            "C": 400.0, "eps": 0.05, "runs": 1000, "seed": 7,
        })
        out = tmp_path / "g.json"
        import os
        env = {**os.environ, "JCL_LOG": "INFO"}
        r = run_cli("game", "--config", cfg, "--out", str(out), "--assert", env=env)
        assert r.returncode == 0, r.stdout + r.stderr
        assert "block profile: T=165" in r.stderr
        rep = json.loads(out.read_text())
        assert rep["mode"] == "payoff"
        assert rep["T"] == 165 and rep["C"] == 400.0 and rep["eps_block"] == 0.02
        assert rep["coins"] == {"p1_alpha": 0.6, "p2_alpha": 0.5}
        assert rep["oracle"] == pytest.approx([0.5275, 0.5275, 0.48], abs=5e-4)
        assert rep["target"] == [0.55, 0.55, 0.5]
        assert rep["gate"]["passed"] is True
        assert len(rep["estimate"]["mean"]) == 3

    def test_absurd_target_fails_gate(self, tmp_path, game_dict):
        cfg = write_cfg(tmp_path, {
            "game": game_dict, "sunspot": sunspot_cfg(target=(1.0, 1.0, 1.0)),
            "C": 400.0, "eps": 0.05, "runs": 600, "seed": 7,
        })
        r = run_cli("game", "--config", cfg, "--out", str(tmp_path / "g.json"), "--assert")
        assert r.returncode == 3
        assert "FAIL" in r.stdout

    def test_deviation_report(self, tmp_path, game_dict):
        cfg = write_cfg(tmp_path, {
            "game": game_dict, "sunspot": sunspot_cfg(),
            "C": 400.0, "eps": 0.05, "runs": 500, "seed": 2,
            "players": ["P3"],
            "deviations": ["quit-at-block:1", "constant-continue:e"],
        })
        out = tmp_path / "dev.json"
        r = run_cli("game", "--mode", "deviations", "--config", cfg,
                    "--out", str(out), "--assert")
        assert r.returncode == 0, r.stdout + r.stderr
        rep = json.loads(out.read_text())
        assert rep["mode"] == "deviations"
        entries = rep["players"]["P3"]["entries"]
        assert [e["name"] for e in entries] == ["quit-at-block:1", "constant-continue:e"]
        assert entries[0]["payoff"] == pytest.approx(0.5, abs=1e-12)
        gate = rep["gate"]
        assert gate["passed"] is True
        assert gate["bound"] > 0.3  # 6 eps plus the worst entry's ci
        assert gate["max_gain"] == rep["players"]["P3"]["max_gain"]

    def test_bad_deviation_and_player_exit_2(self, tmp_path, game_dict):
        base = {
            "game": game_dict, "sunspot": sunspot_cfg(),
            "C": 400.0, "eps": 0.05, "runs": 10, "seed": 2,
        }
        cfg = write_cfg(tmp_path, {**base, "deviations": ["defect"]}, "a.json")
        r = run_cli("game", "--mode", "deviations", "--config", cfg, "--out", "-")
        assert r.returncode == 2 and "unknown deviation" in r.stderr
        cfg = write_cfg(tmp_path, {**base, "players": ["P9"]}, "b.json")
        r = run_cli("game", "--mode", "deviations", "--config", cfg, "--out", "-")
        assert r.returncode == 2 and "unknown player" in r.stderr
        cfg = write_cfg(tmp_path, {**base, "deviations": ["quit-at-block:9999"]}, "c.json")
        r = run_cli("game", "--mode", "deviations", "--config", cfg, "--out", "-")
        assert r.returncode == 2 and "exceeds the horizon T=165" in r.stderr

    def test_zero_runs_rejected(self, tmp_path, game_dict):
        cfg = write_cfg(tmp_path, {
            "game": game_dict, "sunspot": sunspot_cfg(),
            "C": 400.0, "eps": 0.05, "runs": 0,
        })
        r = run_cli("game", "--config", cfg, "--out", "-")
        assert r.returncode == 2
        assert "runs > 0" in r.stderr


def _names_looked_up(module) -> set[str]:
    """Every name the module's own functions and methods look up."""
    names: set[str] = set()

    def walk(code):
        names.update(code.co_names)
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                walk(c)

    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        for fn in [obj, *vars(obj).values()] if isinstance(obj, type) else [obj]:
            if isinstance(fn, types.FunctionType):
                walk(fn.__code__)
    return names


def test_bench_tracer_targets_resolve():
    # bench/tracer.py times each layer by patching these attributes; a
    # renamed or moved call site would silently lose its spans
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for owner, attr, _ in tracer.TARGETS:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)
        if isinstance(owner, types.ModuleType):
            assert attr in _names_looked_up(owner), (owner.__name__, attr)

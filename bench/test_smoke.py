"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.01


def _bench(workload: str, trace: int) -> tuple[list[str], dict]:
    got = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", str(TINY)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = got.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(trace, section):
    lines, result = _bench("strong-push", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(wanted)
    for name, unit in wanted.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit == run.unit_of(name)
        assert math.isfinite(entry["value"])
        assert any(l.split()[:1] == [name] and l.split()[2] == unit for l in lines[:-1]), name


def test_metric_map_covers_every_layer_metric():
    mapped = {n for group in json.loads((BENCH / "metric_map.json").read_text())["layers"]
              for n in group["metrics"]}
    assert {m["name"] for m in SPEC["per_layer"]} <= mapped


@pytest.mark.parametrize("workload, counts", [
    ("strong-push", ["strong.stages"]),
    ("detect-stall", ["weak.run_stages"]),
    ("game-deviations", ["game.lotteries", "game.absorbed"]),
])
def test_traced_counts_repeat_for_a_seed(workload, counts, tmp_path):
    wl = run.workload(workload, 7, TINY)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.config), encoding="utf-8")
    argv = run.cli_argv(wl, config, tmp_path / f"report{wl.suffix}")
    seen = []
    for i in range(2):
        tracer = Tracer(f"smoke-{i}", blame_device=wl.blame_device)
        assert tracer.run_main(argv) == 0
        seen.append(layer_metrics(tracer))
    for name in counts:
        assert seen[0][name] == seen[1][name] > 0, name

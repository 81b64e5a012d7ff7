"""Benchmark of the jcl command line tool.

    python3 bench/run.py --workload strong-push --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
Each workload is one ``jcl`` subcommand on a config generated from
``--seed`` (see ``workload``).  The loop is closed: one CLI process at
a time, the next starting when the last has exited.

``--trace 0`` measures the end-to-end metrics.  It times the set-up in
fresh processes (``setup_probe.py``), then runs the CLI as a child
process at ``--jobs 1``, with tracing off: one warm-up run, then timed
runs until ``--seconds`` have passed and at least three are done.  It
reports medians.

``--trace 1`` measures the per-layer metrics.  It runs the same command
in this process through ``jcl.cli.main(argv)``, alternating an untraced
pass with a pass traced by ``tracer.Tracer``, and reports the traced
layer metrics plus the tracing overhead.

Every run passes ``--assert``, and every report must repeat byte for
byte, since a report is a pure function of (config, seed); the
strong-push workload also checks once that ``--jobs 2`` writes the same
bytes.  Metric names and units come from BENCHMARK.json; the last line
of standard output is the JSON result.  Working files go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
OUT = ROOT / ".bench_out"

MIN_REPS = 3            # CLI runs per measurement, at least
SETUP_REPS = 5          # timed set-ups per run, after one untimed warm-up
CHILD_TIMEOUT_S = 60

COINS = {"p1_alpha": 0.3, "p2_alpha": 0.7}
TARGET = {"a": 0.2, "b": 0.3, "c": 0.5}
SUNSPOT = {      # the README sunspot for the example quitting game
    "x": {"P1": {"a": 0.6, "b": 0.4}, "P2": {"c": 0.5, "d": 0.5}, "P3": {"e": 1.0}},
    "designation": {"type": "stationary",
                    "probs": {"P1": 0.3, "P2": 0.3, "P3": 0.3, "0": 0.1}},
    "eta": 0.02,
    "target_payoff": [0.55, 0.55, 0.5],
}
# runs per CLI invocation; about 4-6 s each on a 2-core AMD EPYC VM
RUNS = {"strong-push": 300_000, "detect-stall": 1_000, "game-deviations": 500}


@dataclass(frozen=True)
class Workload:
    name: str
    command: list[str]          # subcommand and its mode flags
    config: dict
    suffix: str                 # report file type
    blame_device: int | None    # the adversary's device, for detect verdicts

    @property
    def runs(self) -> int:
        return self.config["runs"]


def workload(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The workload's command and config; ``seed`` is the program's root seed."""
    runs = max(1, round(RUNS[name] * scale))
    if name == "strong-push":
        cfg = {"coins": COINS, "target": TARGET, "C": 1600.0, "eps": 0.05,
               "adversary": "push:c", "adversary_device": 2, "runs": runs, "seed": seed}
        return Workload(name, ["lottery-strong", "--jobs", "1"], cfg, ".csv", None)
    if name == "detect-stall":
        cfg = {"coins": COINS, "target": TARGET, "adversary": "stall",
               "adversary_device": 1, "max_stages": 10_000, "runs": runs, "seed": seed}
        return Workload(name, ["detect", "--jobs", "1"], cfg, ".csv", 1)
    from jcl.sample_games import example_quitting_game

    # cmd_game ignores --jobs, so none is passed; C is omitted so it calibrates
    cfg = {"game": example_quitting_game()[0].to_dict(), "sunspot": SUNSPOT, "eps": 0.05,
           "players": ["P1", "P2", "P3"], "runs": runs, "seed": seed}
    return Workload(name, ["game", "--mode", "deviations"], cfg, ".json", None)


def cli_argv(wl: Workload, config_path: Path, out_path: Path) -> list[str]:
    return [*wl.command, "--config", str(config_path), "--out", str(out_path), "--assert"]


def take_report(path: Path) -> tuple[str, int, int]:
    """Digest, data rows and size of a report, which is then deleted.

    Deleting it drops its dirty pages, so writing them back to disk
    cannot stall the next run.
    """
    data = path.read_bytes()
    path.unlink()
    rows = data.count(b"\n") - 1 if path.suffix == ".csv" else 0
    return hashlib.sha256(data).hexdigest(), rows, len(data)


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(argv: list[str], log) -> Child:
    """Run one child process to its end; rusage comes from ``os.wait4``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("JCL_LOG", None)
    log.flush()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


class Tally:
    """Attempted and failed commands, the report bytes they must repeat,
    and any other check that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None
        self.problems: list[str] = []

    def record(self, ok: bool, report: str | None = None) -> None:
        if report is not None:
            self.reference = self.reference or report
            ok = ok and report == self.reference
        self.attempted += 1
        self.failed += not ok


def measure_end_to_end(wl: Workload, seconds: float, tag: str) -> tuple[dict, dict, Tally]:
    config_path = OUT / f"{tag}.config.json"
    out_path = OUT / f"{tag}.report{wl.suffix}"
    config_path.write_text(json.dumps(wl.config), encoding="utf-8")
    py = sys.executable
    tally = Tally()
    with open(OUT / f"{tag}.log", "w", encoding="utf-8") as log:
        setups = []
        for i in range(SETUP_REPS + 1):
            child = run_child([py, str(PROBE), wl.name, str(config_path)], log)
            tally.record(child.code == 0)
            if i:   # the first one compiles bytecode and fills caches
                setups.append(child.wall_s)

        argv = [py, "-m", "jcl.cli", *cli_argv(wl, config_path, out_path)]
        runs: list[Child] = []
        t_end = math.inf
        while len(runs) < MIN_REPS or time.perf_counter() < t_end:
            child = run_child(argv, log)
            tally.record(child.code == 0, take_report(out_path)[0] if child.code == 0 else "")
            if t_end == math.inf:   # the first run is a warm-up; it sets the reference bytes
                t_end = time.perf_counter() + seconds
            else:
                runs.append(child)

        if wl.name == "strong-push":
            child = run_child([*argv, "--jobs", "2"], log)
            tally.record(child.code == 0, take_report(out_path)[0] if child.code == 0 else "")

    wall = statistics.median(c.wall_s for c in runs)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(c.cpu_s for c in runs),
        "runs_per_s": wl.runs / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c.rss_mb for c in runs),
    }
    samples = {
        "setup_s": setups,
        "wall_s": [c.wall_s for c in runs],
        "cpu_s": [c.cpu_s for c in runs],
        "peak_rss_mb": [c.rss_mb for c in runs],
    }
    return metrics, samples, tally


def measure_layers(wl: Workload, seconds: float, tag: str, trace_id: str) -> tuple[dict, dict, Tally]:
    import jcl.cli
    from tracer import Tracer, layer_metrics

    config_path = OUT / f"{tag}.config.json"
    out_path = OUT / f"{tag}.report{wl.suffix}"
    config_path.write_text(json.dumps(wl.config), encoding="utf-8")
    argv = cli_argv(wl, config_path, out_path)
    tally = Tally()
    plain, traced, passes = [], [], []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        for tracer in (None, Tracer(trace_id, blame_device=wl.blame_device)):
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = jcl.cli.main(argv) if tracer is None else tracer.run_main(argv)
                wall = time.perf_counter() - t0
            report, rows, size = take_report(out_path) if code == 0 else ("", 0, 0)
            tally.record(code == 0, report)
            if tracer is None:
                plain.append(wall)
            else:
                traced.append(wall)
                passes.append(tracer)

    per_pass = [layer_metrics(t) for t in passes]
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if unit_of(name) == "count":    # counts are a function of (config, seed)
            if len(set(values)) > 1:
                tally.problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["cli.rows"] = rows
    metrics["cli.out_bytes"] = size
    metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    with open(OUT / f"{tag}.trace.json", "w", encoding="utf-8") as f:
        json.dump([t.as_dict() for t in passes], f)
    return metrics, {"untraced_s": plain, "traced_s": traced}, tally


def unit_of(name: str) -> str:
    """Unit of a metric, read off its name."""
    for suffix, unit in (("per_self_s", "1/s"), ("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_frac", "frac"), ("_mb", "MB"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "ns" if ".ns_per_" in name else "count"


def environment() -> dict:
    import numpy

    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        got = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = got.stdout.split()
        if got.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    src = hashlib.sha256()
    for path in sorted((SRC / "jcl").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's runs (the smoke test uses small values)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "jcl" / "cli.py").is_file() or not spec_path.is_file():
        print(f"bench: no jcl sources under {SRC} or no {spec_path.name}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    seed = args.seed % 2**32
    wl = workload(args.workload, seed, args.scale)
    tag = f"{wl.name}-seed{seed}-trace{args.trace}"
    if args.trace:
        metrics, samples, tally = measure_layers(wl, args.seconds, tag, f"{wl.name}/seed{seed}")
    else:
        metrics, samples, tally = measure_end_to_end(wl, args.seconds, tag)

    env = environment()
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"workload": wl.name, "seed": seed, "trace": args.trace, "runs": wl.runs,
              "environment": env, "samples": samples, "all_metrics": metrics, **result}
    (OUT / f"{tag}.result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {wl.name}  seed {seed}  runs {wl.runs}  "
          f"{'traced, in process' if args.trace else 'CLI child process, --jobs 1'}")
    print("environment " + json.dumps(env))
    for name, values in samples.items():
        print(f"  samples {name}: n={len(values)}")
    listed = {m["name"] for m in wanted}
    for name in sorted(metrics) if args.trace else [m["name"] for m in wanted]:
        mark = "" if name in listed else "  (detail)"
        print(f"  {name:28s} {metrics[name]:.6g} {unit_of(name)}{mark}")
    for problem in tally.problems:
        print(f"  check failed: {problem}")
    print(f"  fail_frac {tally.failed / tally.attempted:.6g}  "
          f"({tally.failed} of {tally.attempted} commands failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

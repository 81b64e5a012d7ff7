"""In-memory span tracer for the jcl benchmark.

The tracer times jcl's layers without changing anything under ``src/``:
it replaces the module attributes through which one layer calls another
(``jcl.cli.simulate_strong``, ``jcl.game.simulate_strong``,
``jcl.strong.device_streams``, ...) with wrappers that record a span per
call and restores the originals afterwards.  Spans live in memory as
(id, parent id, name, start, end) plus a few counts read from the value
the call returned, until the benchmark writes them out at its end.

A span is named ``<layer>.<function>``; the layer is the ``src/jcl``
module the function belongs to.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

import jcl.cli
import jcl.game
import jcl.strong
import jcl.weak

# (owner, attribute, span name).  Each owner is the namespace the caller
# looks the name up in, so every call crossing into a layer is seen once.
TARGETS = (
    (jcl.cli, "simulate_strong", "strong.simulate_strong"),
    (jcl.game, "simulate_strong", "strong.simulate_strong"),
    (jcl.strong, "simulate_strong", "strong.simulate_strong"),   # from calibrate_C
    (jcl.cli, "calibrate_C", "strong.calibrate_C"),
    (jcl.game, "calibrate_C", "strong.calibrate_C"),
    (jcl.cli, "simulate_weak", "weak.simulate_weak"),
    (jcl.weak.WeakBatch, "verdicts", "weak.verdicts"),
    (jcl.cli, "build_block_profile", "game.build_block_profile"),
    (jcl.game, "horizon_T", "game.horizon_T"),
    (jcl.cli, "deviation_gain", "game.deviation_gain"),
    (jcl.cli, "estimate_payoff", "game.estimate_payoff"),
    (jcl.cli, "oracle_payoff", "game.oracle_payoff"),
    (jcl.game, "simulate_block_profile", "game.simulate_block_profile"),
    (jcl.strong, "device_streams", "core.device_streams"),
    (jcl.weak, "device_streams", "core.device_streams"),
    (jcl.game, "substream", "core.substream"),
    (jcl.strong, "normal_quantile", "normal.normal_quantile"),
)

ROOT_SPAN = "cli.main"


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts")

    def __init__(self, span_id: int, parent: int | None, name: str):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.counts: dict[str, int] = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(name: str, args: tuple, result, blame_device: int | None) -> dict[str, int]:
    """Layer counts read from what a traced call returned."""
    if name == "strong.simulate_strong":
        return {"runs": int(result.outcome_idx.size), "stages": int(result.stages.sum())}
    if name == "strong.calibrate_C":
        return {"probes": len(result.probes)}
    if name == "weak.simulate_weak":
        return {
            "runs": int(result.outcome_idx.size),
            "run_stages": int(result.stages.sum()),
            "timeouts": int(np.count_nonzero(result.outcome_idx < 0)),
        }
    if name == "weak.verdicts":
        timed_out = args[0].outcome_idx < 0
        want = f"device{blame_device}_faulty"
        blamed = sum(1 for v, t in zip(result, timed_out) if t and v == want)
        return {"blamed": blamed}
    if name == "game.simulate_block_profile":
        return {"runs": int(result.block.size), "absorbed": int(np.count_nonzero(result.block >= 0))}
    return {}


class Tracer:
    """Spans of one traced pass; ``trace_id`` names the pass."""

    def __init__(self, trace_id: str, *, blame_device: int | None = None):
        self.trace_id = trace_id
        self.blame_device = blame_device
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None, name)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = _counts(name, args, result, self.blame_device)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TARGETS]
        try:
            for (owner, attr, name), (_, _, fn) in zip(TARGETS, saved):
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def run_main(self, argv: list[str]) -> int:
        """Run ``jcl.cli.main(argv)`` under the root span, traced."""
        with self.installed():
            return self._wrap(ROOT_SPAN, jcl.cli.main)(argv)

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.duration - covered)
        return out

    def as_dict(self) -> dict:
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "trace_id": self.trace_id,
            "spans": [
                {"id": s.id, "parent": s.parent, "name": s.name,
                 "start": s.start - t0, "end": s.end - t0, **s.counts}
                for s in self.spans
            ],
        }


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name.

    Times are seconds unless the name says otherwise; ``*_frac`` times
    are shares of the root span, so a layer the command never enters
    reads 0 without being a time.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    wall = sum(s.duration for s in spans if s.name == ROOT_SPAN)

    def named(name):
        return [s for s in spans if s.name == name]

    def layer_self(layer):
        return sum(t for s, t in zip(spans, selfs) if s.layer == layer)

    def total(name, key=None):
        return sum((s.counts.get(key, 0) if key else s.duration) for s in named(name))

    def ratio(a, b):
        return a / b if b else 0.0

    strong_calls = named("strong.simulate_strong")
    strong_self = layer_self("strong")
    strong_runs = total("strong.simulate_strong", "runs")
    weak_self = layer_self("weak")
    weak_stages = total("weak.simulate_weak", "run_stages")
    weak_timeouts = total("weak.simulate_weak", "timeouts")
    sims = named("game.simulate_block_profile")
    sim_ids = {s.id for s in sims}
    lotteries = [s for s in strong_calls if s.parent in sim_ids]
    lottery_runs = sum(s.counts["runs"] for s in lotteries)
    absorbed = total("game.simulate_block_profile", "absorbed")
    call_ms = [s.duration * 1e3 for s in strong_calls]
    game_sim_self = sum(t for s, t in zip(spans, selfs) if s.id in sim_ids)
    streams = [s for s in spans if s.layer == "core"]

    m = {
        "trace.wall_s": wall,
        "cli.self_s": layer_self("cli"),
        "strong.calls": len(strong_calls),
        "strong.self_s": strong_self,
        "strong.runs": strong_runs,
        "strong.stages": total("strong.simulate_strong", "stages"),
        "strong.ns_per_run": ratio(strong_self * 1e9, strong_runs),
        "strong.runs_per_self_s": ratio(strong_runs, strong_self),
        "strong.call_p50_ms": _pct(call_ms, 50),
        "strong.call_p99_ms": _pct(call_ms, 99),
        "strong.calibrate_s": total("strong.calibrate_C"),
        "strong.calibrate_probes": total("strong.calibrate_C", "probes"),
        "weak.calls": len(named("weak.simulate_weak")),
        "weak.self_s": weak_self,
        "weak.run_stages": weak_stages,
        "weak.ns_per_run_stage": ratio(weak_self * 1e9, weak_stages),
        "weak.run_stages_per_self_s": ratio(weak_stages, weak_self),
        "weak.timeout_frac": ratio(weak_timeouts, total("weak.simulate_weak", "runs")),
        "weak.verdicts_s": total("weak.verdicts"),
        "weak.blame_correct_frac": ratio(total("weak.verdicts", "blamed"), weak_timeouts),
        "game.build_profile_s": total("game.build_block_profile"),
        "game.horizon_s": total("game.horizon_T"),
        "game.sim_calls": len(sims),
        "game.sim_self_s": game_sim_self,
        "game.lotteries": len(lotteries),
        "game.lottery_runs": lottery_runs,
        "game.absorbed": absorbed,
        "game.useful_lottery_frac": ratio(absorbed, lottery_runs),
        "core.stream_calls": len(streams),
        "core.stream_s": sum(s.duration for s in streams),
        "normal.quantile_calls": len(named("normal.normal_quantile")),
        "normal.quantile_s": total("normal.normal_quantile"),
    }
    for name in ("strong.self", "strong.calibrate", "weak.self", "weak.verdicts",
                 "game.build_profile", "game.horizon", "game.sim_self", "normal.quantile"):
        m[f"{name}_frac"] = ratio(m[f"{name}_s"], wall)
    return m

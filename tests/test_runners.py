"""The one-run transcript runners replay the batch engines exactly.

At one seed and context, ``run_strong`` reads the same uniforms as a
stage-at-a-time ``simulate_strong(..., 1, m_cap=1)`` batch, and
``run_weak`` the same as a ``simulate_weak(..., 1, _per_stage=True)``
batch.  Both share every rule with their engine, so each pair must
agree run for run, not only in law.
"""

import pytest

from jcl import (
    BinaryCoinPair,
    Honest,
    ProbabilityVector,
    default_suite,
    run_strong,
    run_weak,
    simulate_strong,
    simulate_weak,
)

COINS = BinaryCoinPair(0.3, 0.7)
NU3 = ProbabilityVector.from_dict({"a": 0.2, "b": 0.3, "c": 0.5})
CASES = [(spec, dev) for spec in [Honest()] + default_suite(NU3.outcomes.labels) for dev in (1, 2)]


def test_run_strong_replays_the_stepwise_batch():
    for spec, dev in CASES:
        kw = {"adversary": spec, "adversary_device": dev, "seed": 7, "context": (spec.name, dev)}
        r = run_strong(COINS, NU3, 10.0, record=False, **kw)
        b = simulate_strong(COINS, NU3, 10.0, 1, m_cap=1, **kw)
        got = (r.outcome_index, r.stages, r.z)
        assert got == (b.outcome_idx[0], b.stages[0], b.z[0]), (spec.name, dev)


@pytest.mark.parametrize("max_stages,window", [(200, 100), (1500, 1000), (50, 100)])
def test_run_weak_replays_the_per_stage_batch(max_stages, window):
    for spec, dev in CASES:
        kw = {"adversary": spec, "adversary_device": dev, "seed": 7, "context": (spec.name, dev),
              "max_stages": max_stages, "window": window}
        r = run_weak(COINS, NU3, **kw)
        b = simulate_weak(COINS, NU3, 1, _per_stage=True, **kw)
        got = (r.outcome_index, r.stages, r.verdict.verdict)
        assert got == (b.outcome_idx[0], b.stages[0], b.verdicts()[0]), (spec.name, dev)

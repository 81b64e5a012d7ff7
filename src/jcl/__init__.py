"""Jointly controlled lotteries: mechanisms, attacks, and verification.

Two players who distrust each other can still run a fair public
lottery using nothing but their own mixed actions.  This package
implements a bounded mechanism whose stopping time has a hard cap, an
unbounded mechanism whose per-round fairness survives any deviation by
one player, fault detection for the latter, and the block construction
that turns these lotteries into near-equilibrium play in quitting
games.  Everything is paired with adversary strategies and statistical
acceptance checks, wired into the ``jcl`` command line tool.
"""

from .adversaries import (
    AdversarySpec,
    Constant,
    Honest,
    Push,
    Stall,
    default_suite,
    parse_adversary,
)
from .core import (
    ALPHA,
    BETA,
    BinaryCoinPair,
    BinaryPartition,
    OutcomeSet,
    ProbabilityVector,
    Transcript,
    device_streams,
    letter_from_name,
    substream,
)
from .game import (
    NOBODY,
    QUIT,
    BlockProfile,
    BlockSimResult,
    ConstantContinue,
    CyclicDesignation,
    DesignationRule,
    Deviation,
    DeviationEntry,
    DeviationReport,
    PayoffEstimate,
    QuitAtBlock,
    QuittingGame,
    StallLottery,
    StationaryDesignation,
    SunspotProfile,
    build_block_profile,
    deviation_gain,
    estimate_payoff,
    horizon_T,
    oracle_payoff,
    parse_deviation,
    perturb_pure,
    simulate_block_profile,
    sunspot_from_dict,
)
from .normal import normal_cdf, normal_quantile
from .stats import (
    EmpiricalDistribution,
    hoeffding_margin,
    linf_distance,
)
from .strong import (
    CalibrationProbe,
    CalibrationResult,
    IntervalPartition,
    ScoreTable,
    StrongBatch,
    StrongRunResult,
    calibrate_C,
    run_strong,
    simulate_strong,
)
from .weak import (
    DetectionVerdict,
    WeakBatch,
    WeakRunResult,
    default_max_stages,
    detect_fault,
    run_weak,
    simulate_weak,
)

__version__ = "0.1.0"

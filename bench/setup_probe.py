"""Do a workload's set-up and nothing else, in a fresh process.

    python3 bench/setup_probe.py <workload> <config.json>

Set-up is everything the CLI does before its first simulated run:
interpreter start, ``import jcl``, config parsing and, for the game
workload, building the block profile (``horizon_T`` plus
``calibrate_C``).  The benchmark times this process from start to exit.
It uses the same public functions the CLI calls.
"""

import json
import sys

from jcl import BinaryCoinPair, ProbabilityVector, parse_adversary
from jcl.game import QuittingGame, build_block_profile, sunspot_from_dict


def main(workload: str, config_path: str) -> None:
    with open(config_path, encoding="utf-8") as f:
        cfg = json.load(f)
    if workload == "game-deviations":
        game = QuittingGame.from_dict(cfg["game"])
        sunspot = sunspot_from_dict(game, cfg["sunspot"])
        build_block_profile(game, sunspot, cfg["eps"], seed=cfg["seed"])
    else:
        BinaryCoinPair.from_dict(cfg["coins"])
        ProbabilityVector.from_dict(cfg["target"])
        parse_adversary(cfg["adversary"])


if __name__ == "__main__":
    main(*sys.argv[1:])

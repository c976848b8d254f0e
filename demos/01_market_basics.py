"""Walk through the market model: configs, populations, and outcome sampling.

Run from the repository root:  python3 demos/01_market_basics.py
"""

import math
from pathlib import Path

import numpy as np

from crowdmarket import (
    OutcomeBlocks,
    jct_location,
    load_config,
    outcome_streams,
    sample_outcome,
    sample_population,
)

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference400.cfg"


def main() -> None:
    cfg, recipe, _ = load_config(CONFIG)
    print(f"market: n={cfg.n}, deadline={cfg.D}, failure budget epsilon={cfg.epsilon}")
    print(f"bounds: cost {cfg.cost_bounds}, mjct {cfg.rho_bounds}, mttf {cfg.beta_bounds}")

    workers = sample_population(cfg, recipe)
    fast = [w for w in workers if w.cost < 100.0]
    slow = [w for w in workers if w.cost == 100.0]
    print(f"\npopulation: {len(fast)} capable workers, {len(slow)} slow ones")
    print(f"  capable mjct range: {min(w.mjct for w in fast):.1f}"
          f" .. {max(w.mjct for w in fast):.1f}")
    print(f"  capable cost range: {min(w.cost for w in fast):.1f}"
          f" .. {max(w.cost for w in fast):.1f}")

    # same seed -> same population, bit for bit
    again = sample_population(cfg, recipe)
    print(f"  resampling with the same seed reproduces it exactly: {workers == again}")

    # completion times: fraction * lognormal with mean exactly mjct
    # (sample_outcome serves a batch of workers from their pre-drawn blocks;
    # here the batch is worker 0 alone)
    w = workers[0]
    blocks = OutcomeBlocks(
        outcome_streams(cfg)[:1], [jct_location(w.mjct, cfg.sigma_log)], [w.mttf],
        sigma_log=cfg.sigma_log, delta=cfg.delta,
    )
    tau, window = map(np.concatenate, zip(*(
        sample_outcome(blocks, [0], [0.5]) for _ in range(50_000)
    )))
    draws = tau / 0.5
    observed = int((window >= 0).sum())
    failures = int((window == 1).sum())
    print(f"\nworker 0: true mjct = {w.mjct:.2f}, empirical mean of tau/fraction = "
          f"{draws.mean():.2f} (se {draws.std() / math.sqrt(draws.size):.3f})")
    p_true = 1.0 - math.exp(-cfg.delta / w.mttf)
    print(f"worker 0: true window-failure prob = {p_true:.4f},"
          f" empirical = {failures / observed:.4f} over {observed} observed windows")


if __name__ == "__main__":
    main()

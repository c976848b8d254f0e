"""Fuzz the incentive properties: deviation sweeps and individual rationality.

Draws random one-job markets, lets every worker try a misreport for each bid
order it can reach, and confirms nobody beats truthful bidding; along the
way, checks that truthful utilities never go negative.

Run from the repository root:  python3 demos/04_incentive_checks.py
"""

import numpy as np

from crowdmarket import (
    deviation_sweep,
    job_payments,
    random_frozen_instance,
    sw_greedy,
)


def main(instances: int = 60, seed: int = 5) -> None:
    rng = np.random.default_rng(seed)
    worst_gain = -np.inf
    min_utility = np.inf
    sweeps = 0
    for _ in range(instances):
        inst = random_frozen_instance(rng, n_max=8)
        alloc = sw_greedy(inst.costs, inst.caps)
        rec = job_payments(
            alloc, inst.caps, inst.costs, inst.cost_bounds[1], true_costs=inst.costs
        )
        min_utility = min(min_utility, float(rec.utilities.min()))
        for i in range(len(inst.costs)):
            worst_gain = max(worst_gain, deviation_sweep(inst, i))
            sweeps += 1

    print(f"{instances} random markets, {sweeps} deviation sweeps")
    print(f"best gain any worker found by lying:   {worst_gain:+.3e}")
    print(f"worst truthful utility encountered:    {min_utility:+.3e}")
    print("truthful bidding is a dominant strategy on every instance tried"
          if worst_gain <= 1e-9 else "PROFITABLE DEVIATION FOUND - investigate!")


if __name__ == "__main__":
    main()
